"""Iterative-detection interference canceller with a shrinking decision band.

Each iteration recomputes the symbol estimate from the raw demodulator
output R and the previous estimate,

    S_i = R - (C - I) @ S_{i-1},        S_0 = 0,

then snaps entries outside the uncertainty band [-d, d] to the nearest
2-PAM level and leaves entries inside it untouched.  The band shrinks
linearly, d = 1 - i/I, reaching zero after the last iteration; a final
zero-band pass hard-decides any entry still undecided, so the returned
vector is fully mapped.

The mapping-versus-band-update order is ambiguous by one step; the default
maps with the band from the previous iteration (threshold 1 - (i-1)/I) and
`shrink_before_mapping=True` selects the other reading.  Both converge to
the same decisions in practice.

`id_equalize_linear` runs the same recursion with the mapping disabled;
when the spectral radius of (C - I) is below 1 it converges to the
zero-forcing solution C^-1 @ R, and for aggressive compression (where the
radius reaches or exceeds 1) it reports divergence instead.
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ParameterError, ShapeError, check_power_of_two
from .modem import pam_index, pam_levels

_DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True)
class IdConfig:
    iterations: int
    matrix: object  # CorrelationMatrix
    constellation: int = 2
    shrink_before_mapping: bool = False

    def __post_init__(self):
        if self.iterations < 0:
            raise ParameterError(f"iterations must be >= 0, got {self.iterations!r}")
        check_power_of_two(self.constellation, "constellation")


@dataclass
class IdTrace:
    """Per-iteration band value (after its update) and undecided-entry count."""

    d_values: list = field(default_factory=list)
    undecided_counts: list = field(default_factory=list)


def _map_band(values, d, levels):
    """In place: snap entries farther than d from their nearest level midpoint;
    leave the rest undecided.  For 2-PAM this is: |v| > d -> sign(v), else
    unchanged."""
    if len(levels) == 2:
        np.copyto(values, np.sign(values), where=np.abs(values) > d)
        return
    # M > 2 (experimental): undecided iff within d * (half level spacing) of a
    # midpoint between adjacent levels; otherwise snap to the nearest level.
    half_gap = 0.5 * (levels[1] - levels[0])
    idx = np.clip(np.round((values - levels[0]) / (2 * half_gap)), 0, len(levels) - 1)
    nearest = levels[0] + 2 * half_gap * idx
    dist_to_midpoint = half_gap - np.abs(values - nearest)
    undecided = (dist_to_midpoint <= d * half_gap) & (np.abs(values - nearest) < half_gap)
    np.copyto(values, nearest, where=~undecided)


def _off_diagonal(matrix):
    """C - I, built without an identity matrix (same values, one n x n copy)."""
    off = matrix.entries.copy()
    off.flat[:: matrix.n + 1] -= 1.0
    return off


def _iterate(config, received, trace=None):
    """Core recursion on an (m, N) stack of received vectors."""
    levels = pam_levels(config.constellation)
    if config.iterations == 0:
        return levels[pam_index(received, config.constellation)]
    off_diag = _off_diagonal(config.matrix)
    estimate = np.zeros_like(received)
    d = 1.0
    total = config.iterations
    for i in range(1, total + 1):
        estimate = received - estimate @ off_diag.T
        if config.shrink_before_mapping:
            d = 1.0 - i / total
        _map_band(estimate, d, levels)
        if trace is not None:
            decided = np.isin(estimate, levels)
            trace.undecided_counts.append(int(np.sum(~decided)))
        if not config.shrink_before_mapping:
            d = 1.0 - i / total
        if trace is not None:
            trace.d_values.append(d)
    # Entries still inside the final band get a plain hard decision.
    return levels[pam_index(estimate, config.constellation)]


def id_equalize(config, r):
    """Equalize one received vector; returns (recovered levels, IdTrace)."""
    r = _check_vector(config, r)
    trace = IdTrace()
    out = _iterate(config, r[None, :], trace)[0]
    return out, trace


def id_equalize_frame(config, rows):
    """Vectorized equalization of an (m, N) stack of received vectors."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != config.matrix.n:
        raise ShapeError(
            f"rows must have shape (m, {config.matrix.n}), got {rows.shape}"
        )
    return _iterate(config, rows)


@dataclass(frozen=True)
class LinearIdResult:
    values: np.ndarray
    diverged: bool
    norms: np.ndarray  # ||S_i|| per iteration


def id_equalize_linear(config, r):
    """Run the recursion without constellation mapping (analysis helper)."""
    r = _check_vector(config, r)
    off_diag = _off_diagonal(config.matrix)
    estimate = np.zeros_like(r)
    scale = max(float(np.linalg.norm(r)), 1.0)
    norms = []
    diverged = False
    for _ in range(config.iterations):
        estimate = r - off_diag @ estimate
        norm = float(np.linalg.norm(estimate))
        norms.append(norm)
        if not np.isfinite(norm) or norm > _DIVERGENCE_FACTOR * scale:
            diverged = True
            break
    return LinearIdResult(values=estimate, diverged=diverged, norms=np.array(norms))


def iteration_spectral_radius(matrix):
    """Spectral radius of (C - I); below 1 means the linear recursion converges."""
    return float(np.max(np.abs(np.linalg.eigvalsh(_off_diagonal(matrix)))))


def _check_vector(config, r):
    r = np.asarray(r, dtype=np.float64)
    if r.ndim != 1 or r.size != config.matrix.n:
        raise ShapeError(
            f"r must be a length-{config.matrix.n} vector, got shape {r.shape}"
        )
    return r

"""Iterative-detection interference canceller with a shrinking decision band.

Each iteration recomputes the symbol estimate from the raw demodulator
output R and the previous estimate,

    S_i = R - (C - I) @ S_{i-1},        S_0 = 0,

then snaps entries outside the uncertainty band [-d, d] to the nearest
2-PAM level and leaves entries inside it untouched.  The band shrinks
linearly, d = 1 - i/I, reaching zero after the last iteration; a final
zero-band pass hard-decides any entry still undecided, so the returned
vector is fully mapped.

Iteration i maps with the band of the previous iteration, threshold
1 - (i-1)/I, and then shrinks it.

The detector reads C only through C - I, which `IdConfig` keeps in place of C.

`id_equalize_linear` runs the same recursion with the mapping disabled;
when the spectral radius of (C - I) is below 1 it converges to the
zero-forcing solution C^-1 @ R, and for aggressive compression (where the
radius reaches or exceeds 1) it reports divergence instead.
"""

from dataclasses import InitVar, dataclass, field

import numpy as np

from .exceptions import (
    ParameterError, ShapeError, check_buffer, check_integer, check_power_of_two, check_real_array,
)
from .icimodel import CorrelationMatrix
from .modem import pam_index, pam_levels

_DIVERGENCE_FACTOR = 1e6
_SIGN_BIT = np.uint64(1 << 63)


@dataclass(frozen=True, eq=False)
class IdConfig:
    """Detector settings for one correlation matrix C.

    Only C - I (`matrix.off_diagonal`, read-only) is kept, as `off_diagonal`;
    the `matrix` argument itself is not retained, so C can be freed once the
    config exists.  Two configs compare equal only if they are the same object.
    """

    iterations: int
    matrix: InitVar[CorrelationMatrix]
    constellation: int = 2
    off_diagonal: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, matrix):
        check_integer(self.iterations, "iterations", 0)
        check_power_of_two(self.constellation, "constellation")
        if not isinstance(matrix, CorrelationMatrix):
            raise ParameterError(
                f"matrix must be an icimodel.CorrelationMatrix, got {type(matrix).__name__}"
            )
        object.__setattr__(self, "off_diagonal", matrix.off_diagonal)


@dataclass
class IdTrace:
    """Per-iteration band value (after its update) and undecided-entry count."""

    d_values: list = field(default_factory=list)
    undecided_counts: list = field(default_factory=list)


def _map_band(values, d, levels, mag=None, decided=None):
    """In place: snap entries farther than d from their nearest level midpoint;
    leave the rest undecided.  Returns the mask of the snapped entries.  For
    2-PAM this is: |v| > d -> sign(v), else unchanged, bit for bit, each entry
    keeping its own sign bit; `mag` and `decided` are optional float and bool
    scratch arrays of the shape of `values`.  Needs d >= 2**-53 (the loop's
    bands are about 1/I or wider): `pam_index` puts (0, 2**-53] on the lower
    level, so only then does every snapped entry get the level it decides."""
    if len(levels) == 2:
        # Branch-free and exact for d in [0, 1]: a decided entry gets
        # max(min(|v|, d), 1) = 1, an undecided one max(|v|, 0) = |v|.  The
        # sign bit comes back from v itself (so -0 and NaN keep theirs): the
        # magnitude's sign bit is clear, so keeping v's sign bit and OR-ing in
        # the magnitude's bits is copysign(mag, v) in two integer passes.
        mag = np.abs(values, out=mag)
        decided = np.greater(mag, d, out=decided)
        np.minimum(mag, d, out=mag)
        np.maximum(mag, decided, out=mag)
        bits = values.view(np.uint64)
        bits &= _SIGN_BIT
        bits |= mag.view(np.uint64)
        return decided
    # M > 2 (experimental): the 2-PAM rule in units of the half level spacing.
    # An entry is snapped to its nearest level, the one `pam_index` decides
    # for, iff it lies farther than d * half_gap from the nearest midpoint
    # between adjacent levels: half_gap - |offset| away inside the outer
    # levels, half_gap + |offset| past them.  NaN stays undecided.
    half_gap = 0.5 * (levels[1] - levels[0])
    nearest = levels[pam_index(values, len(levels), scratch=mag)]
    offset = np.abs(values - nearest)
    to_midpoint = np.where(np.abs(values) > levels[-1], half_gap + offset, half_gap - offset)
    decided = np.greater(to_midpoint, d * half_gap, out=decided)
    np.copyto(values, nearest, where=decided)
    return decided


def _iterate(config, received, trace, index, estimate, product, decided):
    """Core recursion on an (m, N) stack of received vectors; returns the
    level index (`pam_index`) of every entry, written to `index` if not None.
    `trace`, if not None, is the `IdTrace` to append each iteration to.

    `estimate` and `product` are float scratch of the stack's shape, and
    `decided` bool.  S_i and S_{i-1} take the two float buffers in turn: the
    product (C - I) @ S_{i-1} goes to the buffer S_{i-1} does not hold, the
    residual R - product replaces it there as S_i, and the buffer of S_{i-1}
    becomes the band map's magnitude.  The start is chosen so that S_I ends
    in `estimate`, and the final decision works in place on it, so `index`
    may share `product`'s memory, as in the sweep's workspace.
    """
    if config.iterations == 0:
        return pam_index(received, config.constellation, out=index, scratch=estimate)
    levels = pam_levels(config.constellation)
    off_diag_t = config.off_diagonal.T
    estimate = np.empty(received.shape) if estimate is None else estimate
    product = np.empty(received.shape) if product is None else product
    decided = np.empty(received.shape, dtype=bool) if decided is None else decided
    total = config.iterations
    # S_1 lands in `estimate` iff I is odd; S_0 = 0 makes the first product
    # exactly +0, so S_1 = R.
    current, spare = (estimate, product) if total % 2 else (product, estimate)
    np.copyto(current, received)
    d = 1.0
    for i in range(1, total + 1):
        if i > 1:
            current, spare = spare, current
            np.matmul(spare, off_diag_t, out=current)
            np.subtract(received, current, out=current)
        snapped = _map_band(current, d, levels, spare, decided)
        d = 1.0 - i / total
        if trace is not None:
            trace.undecided_counts.append(snapped.size - int(np.count_nonzero(snapped)))
            trace.d_values.append(d)
    # Entries still inside the final band get a plain hard decision.
    return pam_index(estimate, config.constellation, out=index, scratch=estimate)


def id_equalize_frame(config, rows, *, trace=None, out=None, estimate=None, product=None,
                      decided=None):
    """Equalize an (m, N) stack of received vectors (one vector: m = 1).

    Returns the level index (`modem.pam_index`, ready for `modem.gray_demap`)
    of every decision; `pam_levels(config.constellation)[index]` gives the
    levels.  An `IdTrace` as `trace` gets each iteration's band and undecided
    count over the stack.  Optional buffers, each of the stack's shape and
    C-contiguous: int64 `out` for the result, float64 `estimate` and
    `product` and bool `decided` for the iteration's work.
    """
    rows = check_real_array(rows, "rows", len(config.off_diagonal))
    if rows.ndim != 2:
        raise ShapeError(f"rows must be an (m, N) stack, got shape {rows.shape}")
    if trace is not None and not isinstance(trace, IdTrace):
        raise ParameterError(f"trace must be an IdTrace or None, got {type(trace).__name__}")
    check_buffer(out, rows.shape, np.int64, "out")
    check_buffer(estimate, rows.shape, np.float64, "estimate")
    check_buffer(product, rows.shape, np.float64, "product")
    check_buffer(decided, rows.shape, bool, "decided")
    return _iterate(config, rows, trace, out, estimate, product, decided)


@dataclass(frozen=True)
class LinearIdResult:
    values: np.ndarray
    diverged: bool
    norms: np.ndarray  # ||S_i|| per iteration


def id_equalize_linear(config, r):
    """Run the recursion without constellation mapping (analysis helper)."""
    r = _check_vector(config, r)
    off_diag = config.off_diagonal
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
    return float(np.max(np.abs(np.linalg.eigvalsh(matrix.off_diagonal))))


def _check_vector(config, r):
    r = check_real_array(r, "r", len(config.off_diagonal))
    if r.ndim != 1:
        raise ShapeError(f"r must be a vector, got shape {r.shape}")
    return r

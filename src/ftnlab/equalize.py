"""Iterative-detection interference canceller with a shrinking decision band.

Each iteration recomputes the symbol estimate from the raw demodulator
output R and the previous estimate,

    S_i = R - (C - I) @ S_{i-1},        S_0 = 0,

then snaps entries outside the uncertainty band [-d, d] to the nearest
2-PAM level and leaves entries inside it untouched.  The band shrinks
linearly, d = 1 - i/I, reaching zero after the last iteration; a final
zero-band pass hard-decides any entry still undecided, so the returned
vector is fully mapped.  At I = 0 the detector is the plain hard decision
`modem.pam_index` of R.

Iteration i maps with the band of the previous iteration, threshold
1 - (i-1)/I, and then shrinks it.

The detector reads C only through C - I, which `IdConfig` keeps in place of C,
in float32.  At I >= 1 it iterates in float32 too: R is rounded once, and the
GEMMs, residuals and band maps all run on float32 arrays, since a float32
GEMM at these shapes takes about half the time of a float64 one and one
precision throughout spares a mixed-type pass per iteration.  Each entry of
C - I is rounded once from float64 (the diagonal C_kk - 1 is formed in
float64 first), and the final decision compares the float32 estimate with
`modem.PAM_THRESHOLD`, 2**-53, which float32 holds exactly.  At I = 0 the
float64 rows are decided as they are.
"""

from dataclasses import InitVar, dataclass, field

import numpy as np

from .exceptions import (
    ParameterError, ShapeError, check_apart, check_buffer, check_integer, check_real_array,
)
from .icimodel import CorrelationMatrix
from .modem import PAM_THRESHOLD, pam_index


@dataclass(frozen=True, eq=False)
class IdConfig:
    """2-PAM detector settings for one correlation matrix C.

    Only C - I is kept, as `off_diagonal`: a read-only float32 array (4 N^2
    bytes), rounded once from C, with no float64 C - I built on the way.
    The `matrix` argument itself is not retained, so C can be freed once the
    config exists.  Two configs compare equal only if they are the same
    object.
    """

    iterations: int
    matrix: InitVar[CorrelationMatrix]
    off_diagonal: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, matrix):
        check_integer(self.iterations, "iterations", 0)
        if not isinstance(matrix, CorrelationMatrix):
            raise ParameterError(
                f"matrix must be an icimodel.CorrelationMatrix, got {type(matrix).__name__}"
            )
        off = np.empty(matrix.entries.shape, np.float32)
        np.copyto(off, matrix.entries)
        off.flat[:: matrix.n + 1] = np.diagonal(matrix.entries) - 1.0
        off.setflags(write=False)
        object.__setattr__(self, "off_diagonal", off)


@dataclass
class IdTrace:
    """Per-iteration band value (after its update) and undecided-entry count."""

    d_values: list = field(default_factory=list)
    undecided_counts: list = field(default_factory=list)


def _map_band(values, d, mag=None, decided=None):
    """In place, the 2-PAM band map: |v| > d -> sign(v), else unchanged, bit
    for bit, each entry keeping its own sign bit.  Returns the mask of the
    snapped entries; `mag` and `decided` are optional scratch arrays of the
    shape of `values`, of its float dtype and bool.  The band d is compared
    in that dtype.  Needs d >= 2**-53 (the loop's bands are about 1/I or
    wider): `pam_index` puts (0, 2**-53] on the lower level, so only then
    does every snapped entry get the level it decides."""
    # Branch-free and exact for d in [0, 1]: a decided entry gets
    # max(min(|v|, d), 1) = 1, an undecided one max(|v|, 0) = |v|.  The sign
    # bit comes back from v itself (so -0 and NaN keep theirs): the
    # magnitude's sign bit is clear, so keeping v's sign bit and OR-ing in the
    # magnitude's bits is copysign(mag, v) in two integer passes, on the
    # unsigned word of the float's width.
    mag = np.abs(values, out=mag)
    decided = np.greater(mag, d, out=decided)
    np.minimum(mag, d, out=mag)
    np.maximum(mag, decided, out=mag)
    word = f"u{values.itemsize}"
    bits = values.view(word)
    bits &= np.array(-0.0, values.dtype).view(word)  # the sign bit alone
    bits |= mag.view(word)
    return decided


def _iterate(config, rows, trace, index, received, estimate, product, decided):
    """Core recursion on an (m, N) float64 stack of received vectors; returns
    the level index (`pam_index`) of every entry, written to `index` if not
    None.  `trace`, if not None, is the `IdTrace` to append each iteration to.

    `received`, `estimate` and `product` are float32 scratch of the stack's
    shape, and `decided` bool.  `received` takes R rounded once to float32,
    so every iteration works in one precision.  S_i and S_{i-1} take
    `estimate` and `product` in turn: the product (C - I) @ S_{i-1} goes to
    the buffer S_{i-1} does not hold, the residual R - product replaces it
    there as S_i, and the buffer of S_{i-1} becomes the band map's magnitude.
    The start is chosen so that S_I ends in `estimate`, and the final
    decision reads only `estimate`, so `index` may share the memory of
    `received` and `product`, as in the sweep's workspace.
    """
    if config.iterations == 0:
        return pam_index(rows, out=index)
    off_diag_t = config.off_diagonal.T
    received = np.empty(rows.shape, np.float32) if received is None else received
    estimate = np.empty(rows.shape, np.float32) if estimate is None else estimate
    product = np.empty(rows.shape, np.float32) if product is None else product
    decided = np.empty(rows.shape, dtype=bool) if decided is None else decided
    index = np.empty(rows.shape, dtype=np.int64) if index is None else index
    np.copyto(received, rows)
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
        snapped = _map_band(current, d, spare, decided)
        d = 1.0 - i / total
        if trace is not None:
            trace.undecided_counts.append(snapped.size - int(np.count_nonzero(snapped)))
            trace.d_values.append(d)
    # Entries still inside the final band get a plain hard decision, the rule
    # of `pam_index` on the float32 values themselves.
    return np.greater(estimate, PAM_THRESHOLD, out=index)


def id_equalize_frame(config, rows, *, trace=None, out=None, received=None, estimate=None,
                      product=None, decided=None):
    """Equalize an (m, N) stack of received vectors (one vector: m = 1).

    Returns the 2-PAM decision (`modem.pam_index`) on every entry, which is
    its bit; `modem.PAM_LEVELS[index]` gives the levels.  An `IdTrace` as
    `trace` gets each iteration's band and undecided count over the stack.
    Optional buffers, each of the stack's shape and C-contiguous: int64 `out`
    for the result, float32 `received` (the rows rounded to float32),
    `estimate` and `product` and bool `decided` for the iteration's work.
    The work buffers may share no memory with `rows` or with each other
    (`ParameterError`); `out` may share the memory of `received` and
    `product`, not that of `estimate`.
    """
    rows = check_real_array(rows, "rows", len(config.off_diagonal))
    if rows.ndim != 2:
        raise ShapeError(f"rows must be an (m, N) stack, got shape {rows.shape}")
    if trace is not None and not isinstance(trace, IdTrace):
        raise ParameterError(f"trace must be an IdTrace or None, got {type(trace).__name__}")
    check_buffer(out, rows.shape, np.int64, "out")
    check_buffer(received, rows.shape, np.float32, "received")
    check_buffer(estimate, rows.shape, np.float32, "estimate")
    check_buffer(product, rows.shape, np.float32, "product")
    check_buffer(decided, rows.shape, bool, "decided")
    check_apart(rows=rows, received=received, estimate=estimate, product=product,
                decided=decided)
    return _iterate(config, rows, trace, out, received, estimate, product, decided)

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
in float32.  At I >= 1 it iterates in float32 too: R is taken as it is if
float32 (the sweep forms its rows so) and rounded once otherwise, and the
GEMMs, residuals and band maps all run on float32 arrays, since a float32
GEMM at these shapes takes about half the time of a float64 one and one
precision throughout spares a mixed-type pass per iteration.  Each entry of
C - I is rounded once from float64 (the diagonal C_kk - 1 is formed in
float64 first), and the final decision is `modem.pam_index` of the float32
estimate, a comparison with 2**-53, which float32 holds exactly.  The band
map leaves a uint32 0/1 flag per entry, 1 where it snapped, from which a
trace counts the undecided.  The last iteration's map changes no sign, so
it is skipped unless a trace is to count its flags.

An (m, N) stack is the rows S of m vectors, and each iteration's GEMM takes
one of two orientations by the stack's shape alone, both reading C - I as
stored, which is symmetric to the last bit.  With m >= N it multiplies rows,
S @ (C - I); with m < N it runs the loop on the (N, m) transpose and
multiplies (C - I) @ S^T, which OpenBLAS's sgemm runs 5-30% faster at those
shapes (at 128 x 1024, one frame of N = 1024, the ID takes about a seventh
less time).  On OpenBLAS the two give the same decisions bit for bit, as the
tests check, though BLAS does not promise it.

The detector's scratch is one float32 array of shape (4, m, N), its `work`,
each plane read as an (N, m) transpose when m < N.  Plane 0 takes R in
float32, planes 1 and 2 hold S_{i-1} and S_i in turn, and plane 3 the band
map's uint32 flags.  Each product (C - I) @ S_{i-1} goes to the plane
S_{i-1} does not hold, the residual R - product replaces it there as S_i,
and the plane of S_{i-1} becomes the band map's magnitude.  S_1 starts in
plane 1, so S_I ends in plane 1 or 2; the final decision reads only that
plane, writes the one-byte decisions over the first quarter of plane 0 and
returns them as a view there.  At I = 0 the rows are decided as they are,
into the same bytes.
"""

import copy
from dataclasses import InitVar, dataclass, field

import numpy as np

from .exceptions import (
    ShapeError, check_apart, check_buffer, check_integer, check_real_array, check_type,
)
from .icimodel import CorrelationMatrix
from .modem import pam_index


@dataclass(frozen=True, eq=False)
class IdConfig:
    """2-PAM detector settings for one correlation matrix C.

    Only C - I is kept, as `off_diagonal`: a read-only float32 array (4 N^2
    bytes), rounded once from C, with no float64 C - I built on the way.
    The `matrix` argument itself is not retained, so C can be freed once the
    config exists; `with_iterations` gives the detector at another iteration
    count on the same array.  Two configs compare equal only if they are the
    same object.
    """

    iterations: int
    matrix: InitVar[CorrelationMatrix]
    off_diagonal: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, matrix):
        check_integer(self.iterations, "iterations", 0)
        check_type(matrix, CorrelationMatrix, "matrix")
        off = np.empty(matrix.entries.shape, np.float32)
        np.copyto(off, matrix.entries)
        off.flat[:: matrix.n + 1] = np.diagonal(matrix.entries) - 1.0
        off.setflags(write=False)
        object.__setattr__(self, "off_diagonal", off)

    def with_iterations(self, iterations):
        """This detector at `iterations` iterations, sharing its C - I."""
        check_integer(iterations, "iterations", 0)
        config = copy.copy(self)
        object.__setattr__(config, "iterations", iterations)
        return config


@dataclass
class IdTrace:
    """Per-iteration band value (after its update) and undecided-entry count."""

    d_values: list = field(default_factory=list)
    undecided_counts: list = field(default_factory=list)


def _map_band(values, d, mag=None, flags=None):
    """In place, the 2-PAM band map: |v| > d -> sign(v), else unchanged, bit
    for bit, each entry keeping its own sign bit.  Returns the flags of the
    snapped entries, 1 where snapped and 0 elsewhere, as words of the unsigned
    dtype of the float's width; `mag` and `flags` are optional scratch arrays
    of the shape of `values`, of its float dtype and that unsigned dtype.  The
    band d is compared in the float dtype.  Needs d >= 2**-53 (the loop's
    bands are about 1/I or wider): `pam_index` puts (0, 2**-53] on the lower
    level, so only then does every snapped entry get the level it decides."""
    # Branch-free and exact, in five passes on the float's unsigned word.  The
    # bits of v and |v| differ in the sign bit alone, so v ^ |v| ^ 1.0 is
    # copysign(1, v); multiplying |v| ^ 1.0 by the 0/1 flag first leaves every
    # undecided entry as it is (NaN compares false, so -0 and NaN payloads
    # keep their bits).
    word = f"u{values.itemsize}"
    mag = np.abs(values, out=mag)
    flags = np.greater(mag, d, out=np.empty(values.shape, word) if flags is None else flags)
    bits = mag.view(word)
    bits ^= np.array(1.0, values.dtype).view(word)
    bits *= flags
    np.bitwise_xor(values.view(word), bits, out=values.view(word))
    return flags


def id_equalize_frame(config, rows, *, trace=None, work=None):
    """Equalize an (m, N) stack of received vectors (one vector: m = 1).

    Returns the 2-PAM decision (`modem.pam_index`) on every entry, which is
    its bit; `modem.PAM_LEVELS[index]` gives the levels.  An `IdTrace` as
    `trace` gets each iteration's band and undecided count over the stack.
    Float32 rows are read as they are, other dtypes as float64.  `work` is
    the detector's scratch, allocated if None: a C-contiguous float32 array
    of shape (4, m, N) that shares no memory with `rows` (`ParameterError`).
    The result is uint8, a view of the start of its plane 0.
    """
    check_type(config, IdConfig, "config")
    rows = check_real_array(rows, "rows", len(config.off_diagonal), (np.float64, np.float32))
    if rows.ndim != 2:
        raise ShapeError(f"rows must be an (m, N) stack, got shape {rows.shape}")
    if trace is not None:
        check_type(trace, IdTrace, "trace")
    m, n = rows.shape
    check_buffer(work, (4, m, n), np.float32, "work")
    check_apart(rows=rows, work=work)
    work = np.empty((4, m, n), np.float32) if work is None else work
    index = work[0].reshape(-1).view(np.uint8)[:m * n].reshape(m, n)
    if config.iterations == 0:
        return pam_index(rows, out=index)
    # With m < N each plane is read as its (N, m) transpose, a view.
    shape = (n, m) if m < n else (m, n)
    received, current, spare = (plane.reshape(shape) for plane in work[:3])
    flags = work[3].view(np.uint32).reshape(shape)
    np.copyto(received, rows.T if m < n else rows)
    total = config.iterations
    # S_0 = 0 makes the first product exactly +0, so S_1 = R.
    np.copyto(current, received)
    d = 1.0
    for i in range(1, total + 1):
        if i > 1:
            current, spare = spare, current
            if m < n:
                np.matmul(config.off_diagonal, spare, out=current)
            else:
                np.matmul(spare, config.off_diagonal, out=current)
            np.subtract(received, current, out=current)
        # The last map changes no sign, so the final decision does not need
        # it; only a trace reads its flags.
        if i < total or trace is not None:
            _map_band(current, d, spare, flags)
        d = 1.0 - i / total
        if trace is not None:
            trace.undecided_counts.append(flags.size - int(np.count_nonzero(flags)))
            trace.d_values.append(d)
    # Every entry gets the plain hard decision of `pam_index` on its float32
    # value, snapped or still inside the band; it reads only S_I's plane, 1
    # or 2, so it may write plane 0.
    pam_index(current, out=index.T if m < n else index)
    return index

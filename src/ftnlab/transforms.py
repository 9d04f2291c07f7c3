"""Fractional cosine/Hartley transform multiplexing.

The fractional cosine transform (FrCT) maps N frequency-domain amplitudes
X_k onto N time-domain samples

    x_n = sqrt(2/N) * sum_k W_k * X_k * cos(pi*alpha*(2n+1)*k / (2N)),

with W_0 = 1/sqrt(2) and W_k = 1 otherwise.  The demultiplexer applies the
transposed kernel.  At alpha = 1 this is the orthonormal Type-II DCT pair;
for alpha < 1 the subcarrier spacing is compressed by alpha and the kernel
columns are no longer orthogonal.

The fractional Hartley transform (FrHT) uses the cas kernel

    x_n = sqrt(1/N) * sum_k X_k * cas(2*pi*alpha*n*k / N),   cas t = cos t + sin t,

whose subcarrier spacing is alpha/T, i.e. twice the FrCT spacing at equal
alpha.  FrHT at alpha/2 therefore occupies the same spacing as FrCT at alpha.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ParameterError, allocating_for, check_alpha, check_array, check_buffer, check_integer,
    check_real_array, check_type,
)

# The kernel is built this many entries at a time, in blocks of whole rows
# (256 KB of float64), so a float32 plan or the sample power allocates no
# float64 N x N array.
_BLOCK_ENTRIES = 1 << 15


class TransformKind(enum.Enum):
    FRCT = "FrCT"
    FRHT = "FrHT"


def validate_transform(kind, n, alpha):
    """The checks every (kind, n, alpha) triple passes: a TransformKind, an
    integer n >= 2 and alpha in (0, 1]."""
    check_integer(n, "n", 2)
    check_alpha(alpha)
    check_type(kind, TransformKind, "kind")


@dataclass(frozen=True)
class TransformPlan:
    """Precomputed N x N multiplexing kernel for one (kind, n, alpha), in
    float64 or float32."""

    kind: TransformKind
    n: int
    alpha: float
    kernel: np.ndarray  # kernel[n, k]; multiplex is kernel @ X

    def __post_init__(self):
        validate_transform(self.kind, self.n, self.alpha)
        check_array(self.kernel, (self.n, self.n), (np.float64, np.float32), "kernel")
        self.kernel.setflags(write=False)

    @property
    def dtype(self):
        """The precision the plan multiplexes in: its kernel's dtype."""
        return self.kernel.dtype


def _frct_kernel(n, alpha, start, stop):
    # Rows start:stop of the module docstring's formula, one operation at a
    # time in one array: no temporaries of its size, and the operation order
    # (which fixes every rounding) of the plain one-expression form, so the
    # bits are the same, whatever the rows.
    samp = np.arange(start, stop)[:, None]
    sub = np.arange(n)[None, :]
    weight = np.where(sub == 0, 1.0 / np.sqrt(2.0), 1.0)
    kernel = np.multiply(np.pi * alpha * (2 * samp + 1), sub, out=np.empty((len(samp), n)))
    np.divide(kernel, 2 * n, out=kernel)
    np.cos(kernel, out=kernel)
    return np.multiply(np.sqrt(2.0 / n) * weight, kernel, out=kernel)


def _frht_kernel(n, alpha, start, stop):
    # As `_frct_kernel`, on two arrays of the rows' size.
    samp = np.arange(start, stop)[:, None]
    sub = np.arange(n)[None, :]
    theta = np.multiply(2.0 * np.pi * alpha * samp, sub, out=np.empty((len(samp), n)))
    np.divide(theta, n, out=theta)
    kernel = np.cos(theta)
    np.add(kernel, np.sin(theta, out=theta), out=kernel)
    return np.multiply(np.sqrt(1.0 / n), kernel, out=kernel)


def _kernel_blocks(kind, n, alpha):
    """The float64 kernel as consecutive blocks of rows, (first row, rows)
    pairs of `_BLOCK_ENTRIES` entries or fewer: the one kernel definition."""
    build = _frct_kernel if kind is TransformKind.FRCT else _frht_kernel
    step = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, n, step):
        yield start, build(n, alpha, start, min(n, start + step))


def make_plan(kind, n, alpha, dtype=np.float64):
    """Return the :class:`TransformPlan` (fully materialized kernel) for
    (kind, n, alpha), in `dtype`, numpy.float64 or numpy.float32.  A float32
    kernel is the float64 one rounded once, entry by entry.

    Each call builds its own plan, N^2 entries (8 N^2 bytes in float64, half
    that in float32), with a read-only kernel; numpy scalar arguments give
    the plan's n and alpha as int and float.
    """
    validate_transform(kind, n, alpha)
    if dtype not in (np.float64, np.float32):
        raise ParameterError(f"dtype must be numpy.float64 or numpy.float32, got {dtype!r}")
    n, alpha = int(n), float(alpha)
    with allocating_for(n=n):
        kernel = np.empty((n, n), dtype)
    for start, rows in _kernel_blocks(kind, n, alpha):
        kernel[start:start + len(rows)] = rows
    return TransformPlan(kind=kind, n=n, alpha=alpha, kernel=kernel)


def multiplex(plan, symbols):
    """Frequency-domain symbols -> time-domain samples (kernel @ X), in the
    plan's precision.

    Accepts a length-N vector or an (..., N) stack of vectors.
    """
    symbols = check_real_array(symbols, "symbols", plan.n, (plan.dtype,))
    return np.matmul(symbols, plan.kernel.T)


def sample_power(kind, n, alpha, fixed=None):
    """The mean square of each of the N samples that `multiplex` makes, from
    the float64 kernel of (kind, n, alpha) read in row blocks, with no N x N
    array.  Row 0 is that of uncorrelated zero-mean unit-power symbols, such
    as uniform 2-PAM levels, sum_k kernel[n, k]^2 for sample n; row 1 + r is
    the square of the samples of `fixed[r]`, if given, a fixed row of N
    symbols.  Returns a (1 + len(fixed), N) float64 array."""
    validate_transform(kind, n, alpha)
    fixed = np.empty((0, n)) if fixed is None else check_real_array(fixed, "fixed", n)
    fixed = fixed.reshape(-1, n)
    power = np.empty((1 + len(fixed), n))
    for start, rows in _kernel_blocks(kind, n, alpha):
        block = power[:, start:start + len(rows)]
        block[0] = np.einsum("nk,nk->n", rows, rows)
        np.square(fixed @ rows.T, out=block[1:])
    return power


def demultiplex(plan, samples, *, out=None):
    """Time-domain samples -> frequency-domain outputs (kernel.T @ x), in the
    plan's precision.

    For alpha < 1 the round trip demultiplex(multiplex(v)) equals C @ v,
    where C is the subcarrier correlation matrix.  `out`, if given, receives
    the outputs: an array of the plan's dtype and the result's shape,
    strided or not.
    """
    samples = check_real_array(samples, "samples", plan.n, (plan.dtype,))
    check_buffer(out, samples.shape, plan.dtype, "out", contiguous=False)
    return np.matmul(samples, plan.kernel, out=out)

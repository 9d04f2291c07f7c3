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
from functools import lru_cache

import numpy as np

from .exceptions import ParameterError, check_alpha, check_buffer, check_integer, check_real_array

# Plans kept alive by make_plan.  A BER sweep walks (kind, alpha) as the outer
# loop of its grid, so one plan serves a whole curve and repeated sweeps of
# it; each plan holds an 8 N^2-byte kernel (128 MB at N = 4096).
_PLAN_CACHE_SIZE = 1


class TransformKind(enum.Enum):
    FRCT = "FrCT"
    FRHT = "FrHT"


def validate_transform(kind, n, alpha):
    """The checks every (kind, n, alpha) triple passes: a TransformKind, an
    integer n >= 2 and alpha in (0, 1]."""
    check_integer(n, "n", 2)
    check_alpha(alpha)
    if not isinstance(kind, TransformKind):
        raise ParameterError(f"kind must be a TransformKind, got {kind!r}")


@dataclass(frozen=True)
class TransformPlan:
    """Precomputed N x N multiplexing kernel for one (kind, n, alpha)."""

    kind: TransformKind
    n: int
    alpha: float
    kernel: np.ndarray  # kernel[n, k]; multiplex is kernel @ X

    def __post_init__(self):
        self.kernel.setflags(write=False)


def _frct_kernel(n, alpha):
    # The module docstring's formula, one operation at a time in one N x N
    # array: no N^2 temporaries, and the operation order (which fixes every
    # rounding) of the plain one-expression form, so the bits are the same.
    samp = np.arange(n)[:, None]
    sub = np.arange(n)[None, :]
    weight = np.where(sub == 0, 1.0 / np.sqrt(2.0), 1.0)
    kernel = np.multiply(np.pi * alpha * (2 * samp + 1), sub, out=np.empty((n, n)))
    np.divide(kernel, 2 * n, out=kernel)
    np.cos(kernel, out=kernel)
    return np.multiply(np.sqrt(2.0 / n) * weight, kernel, out=kernel)


def _frht_kernel(n, alpha):
    # As `_frct_kernel`, on two N x N arrays.
    samp = np.arange(n)[:, None]
    sub = np.arange(n)[None, :]
    theta = np.multiply(2.0 * np.pi * alpha * samp, sub, out=np.empty((n, n)))
    np.divide(theta, n, out=theta)
    kernel = np.cos(theta)
    np.add(kernel, np.sin(theta, out=theta), out=kernel)
    return np.multiply(np.sqrt(1.0 / n), kernel, out=kernel)


def make_plan(kind, n, alpha):
    """Return the :class:`TransformPlan` (fully materialized kernel) for
    (kind, n, alpha).

    Plans are cached and shared between callers: identical arguments, also
    as numpy scalars, return the same plan, whose kernel is read-only.
    """
    validate_transform(kind, n, alpha)
    return _cached_plan(kind, int(n), float(alpha))


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _cached_plan(kind, n, alpha):
    build = _frct_kernel if kind is TransformKind.FRCT else _frht_kernel
    return TransformPlan(kind=kind, n=n, alpha=alpha, kernel=build(n, alpha))


def multiplex(plan, symbols):
    """Frequency-domain symbols -> time-domain samples (kernel @ X).

    Accepts a length-N vector or an (..., N) stack of vectors.
    """
    symbols = check_real_array(symbols, "symbols", plan.n)
    return np.matmul(symbols, plan.kernel.T)


def sample_power(plan):
    """The mean square of each of the N samples that `multiplex` makes of
    uncorrelated zero-mean unit-power symbols, such as uniform 2-PAM levels:
    sum_k kernel[n, k]^2 for sample n, with no N x N temporary."""
    return np.einsum("nk,nk->n", plan.kernel, plan.kernel)


def demultiplex(plan, samples, *, out=None):
    """Time-domain samples -> frequency-domain outputs (kernel.T @ x).

    For alpha < 1 the round trip demultiplex(multiplex(v)) equals C @ v,
    where C is the subcarrier correlation matrix.  `out`, if given, receives
    the outputs: a float64 array of the result's shape, strided or not.
    """
    samples = check_real_array(samples, "samples", plan.n)
    check_buffer(out, samples.shape, np.float64, "out", contiguous=False)
    return np.matmul(samples, plan.kernel, out=out)

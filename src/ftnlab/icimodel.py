"""Inter-carrier interference statistics for compressed-spacing multiplexing.

The N x N correlation matrix C = K^T K of the multiplexing kernel K collects
the cross-talk between subcarriers l and m.  It is evaluated here in closed
form, independently of the kernel in :mod:`ftnlab.transforms`; the two routes
agreeing is a key consistency check.  Both kinds give a Toeplitz plus a
Hankel matrix, built in O(N^2) from sums evaluated once on j = 0 .. 2N-2:

    FrCT:  C[l, m] = (1/N) W_l W_m (g(l-m) + g(l+m)),
           g(j) = sum_n cos(alpha*pi*j*(2n+1)/(2N))
                = sin(alpha*pi*j) / (2 sin(alpha*pi*j/(2N))),   g(0) = N;
    FrHT:  C[l, m] = (1/N) (sum_n cos(theta*n*(l-m)) + sum_n sin(theta*n*(l+m))),
           theta = 2*pi*alpha/N,

with W_0 = 1/sqrt(2), W_l = 1 otherwise, and n = 0 .. N-1.  The sums over n
are geometric (see `_geometric_sums`).

The pooled distribution of demodulated 2-PAM symbols under that cross-talk
is modelled as an equal-weight two-component Gaussian mixture centred at
-1 and +1 (sigma fitted by maximum likelihood).
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import ParameterError, check_integer, check_real, check_real_array
from .transforms import TransformKind, demultiplex, make_plan, multiplex, validate_transform

HIST_RANGE = (-2.0, 2.0)
HIST_BIN_WIDTH = 0.02


@dataclass(frozen=True)
class CorrelationMatrix:
    kind: TransformKind
    n: int
    alpha: float
    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)


def _geometric_sums(n, t):
    """sum_k cos(2*pi*k*t) and sum_k sin(2*pi*k*t) over k = 0 .. n-1, for an
    array t.

    Both sums have period 1 in t, so t is first reduced to r = t - round(t).
    Then they are D * cos((n-1)*pi*r) and D * sin((n-1)*pi*r), with the
    Dirichlet ratio D = sin(n*pi*r) / sin(pi*r), which is well conditioned
    near its removable singularity r = 0 and takes its limit n there.
    """
    r = t - np.round(t)
    ratio = np.full_like(r, float(n))
    nonzero = r != 0.0
    ratio[nonzero] = np.sin(n * np.pi * r[nonzero]) / np.sin(np.pi * r[nonzero])
    phase = (n - 1) * np.pi * r
    return ratio * np.cos(phase), ratio * np.sin(phase)


def _toeplitz_plus_hankel(a, b, n):
    """The n x n matrix a[|l - m|] + b[l + m], for a and b of length 2n - 1;
    symmetric to the last bit, since entries (l, m) and (m, l) add the same
    two numbers."""
    # Over (a[n-1], ..., a[1], a[0], ..., a[n-1]), window p holds
    # a[|p + m - (n-1)|] at column m; reversing the windows gives a[|l - m|].
    toeplitz = sliding_window_view(np.concatenate((a[n - 1:0:-1], a[:n])), n)[::-1]
    return toeplitz + sliding_window_view(b, n)


def correlation_matrix(kind, n, alpha):
    """Evaluate the subcarrier correlation matrix in closed form, in O(N^2)."""
    validate_transform(kind, n, alpha)
    n = int(n)
    alpha = float(alpha)
    j = np.arange(2 * n - 1)
    if kind is TransformKind.FRCT:
        # g(j) = Re(exp(i*pi*s) * sum_n exp(2i*pi*n*s)) with s = alpha*j/(2N).
        s = alpha * j / (2 * n)
        cos_sum, sin_sum = _geometric_sums(n, s)
        g = np.cos(np.pi * s) * cos_sum - np.sin(np.pi * s) * sin_sum
        entries = _toeplitz_plus_hankel(g, g, n)
        entries /= n
        weight = 1.0 / np.sqrt(2.0)
        entries[0] *= weight
        entries[:, 0] *= weight
    else:
        cos_sum, sin_sum = _geometric_sums(n, alpha * j / n)
        entries = _toeplitz_plus_hankel(cos_sum, sin_sum, n)
        entries /= n
    return CorrelationMatrix(kind=kind, n=n, alpha=alpha, entries=entries)


def _check_subcarrier(c, k):
    check_integer(k, "k", 0)
    if k >= c.n:
        raise ParameterError(f"k must lie in [0, {c.n}), got {k!r}")


def ici_power(c, k):
    """Interference variance on subcarrier k for unit-power independent symbols:
    sum over l != k of C[k, l]^2."""
    _check_subcarrier(c, k)
    row = c.entries[k]
    return float(np.sum(row * row) - row[k] ** 2)


def mean_ici_power(c):
    """ici_power averaged over all subcarriers."""
    e = c.entries
    return float(np.mean(np.sum(e * e, axis=1) - np.diag(e) ** 2))


@dataclass(frozen=True)
class IciPdfModel:
    """Equal-weight Gaussian mixture centred on the 2-PAM levels."""

    sigma: float

    def __post_init__(self):
        check_real(self.sigma, "sigma", 0)


def mixture_pdf(model, x):
    s = model.sigma
    x = check_real_array(x, "x")
    norm = 1.0 / (2.0 * np.sqrt(2.0 * np.pi) * s)
    return norm * (
        np.exp(-((x + 1.0) ** 2) / (2.0 * s * s))
        + np.exp(-((x - 1.0) ** 2) / (2.0 * s * s))
    )


def mixture_cdf(model, x):
    from scipy import stats

    s = model.sigma
    x = check_real_array(x, "x")
    return 0.5 * (stats.norm.cdf((x + 1.0) / s) + stats.norm.cdf((x - 1.0) / s))


def fit_sigma_mle(samples):
    """Maximum-likelihood sigma of the +/-1 Gaussian mixture for pooled samples."""
    from scipy import optimize

    samples = check_real_array(samples, "samples")
    if samples.size == 0 or not np.all(np.isfinite(samples)):
        raise ParameterError("samples must be nonempty and finite")

    def nll(s):
        return -np.sum(np.log(mixture_pdf(IciPdfModel(sigma=s), samples) + 1e-300))

    res = optimize.minimize_scalar(nll, bounds=(1e-4, 10.0), method="bounded")
    return float(res.x)


def ks_distance(samples, model):
    """Kolmogorov-Smirnov distance between the sample CDF and the mixture CDF."""
    x = np.sort(check_real_array(samples, "samples"))
    m = x.size
    cdf = mixture_cdf(model, x)
    ecdf_hi = np.arange(1, m + 1) / m
    ecdf_lo = np.arange(0, m) / m
    return float(max(np.max(np.abs(cdf - ecdf_hi)), np.max(np.abs(cdf - ecdf_lo))))


def ici_samples(config, frames, rng_seed):
    """Noiseless transmit/demodulate round trips, pooled over all subcarriers.

    Returns (values, residuals): demodulated outputs normalized by the
    per-subcarrier diagonal gain C[k, k], and the same values minus the
    transmitted +/-1 symbols.
    """
    check_integer(frames, "frames", 1)
    check_integer(rng_seed, "rng_seed", 0)
    plan = make_plan(config.kind, config.n, config.alpha)
    diag = np.diag(correlation_matrix(config.kind, config.n, config.alpha).entries)
    rng = np.random.default_rng(rng_seed)
    sent = 2.0 * rng.integers(0, 2, size=(frames, config.n)) - 1.0
    received = demultiplex(plan, multiplex(plan, sent)) / diag
    return received.ravel(), (received - sent).ravel()


@dataclass(frozen=True)
class IciHistogram:
    bin_edges: np.ndarray
    density: np.ndarray  # normalized by total sample count, incl. out-of-range
    sample_count: int

    @property
    def bin_centers(self):
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


def ici_histogram(values):
    """Histogram of samples (the `ici_samples` values) on a fixed [-2, 2]
    grid with 0.02-wide bins."""
    values = check_real_array(values, "values")
    if values.size == 0 or not np.all(np.isfinite(values)):
        raise ParameterError("values must be nonempty and finite")
    nbins = int(round((HIST_RANGE[1] - HIST_RANGE[0]) / HIST_BIN_WIDTH))
    counts, edges = np.histogram(values, bins=nbins, range=HIST_RANGE)
    density = counts / (values.size * HIST_BIN_WIDTH)
    return IciHistogram(bin_edges=edges, density=density, sample_count=values.size)


def correlation_row(c, k):
    """Columns l and |C[l, k]| for one subcarrier k."""
    _check_subcarrier(c, k)
    return {"l": np.arange(c.n), "abs_C_l_k": np.abs(c.entries[:, k])}

"""Inter-carrier interference statistics for compressed-spacing multiplexing.

The N x N correlation matrix

    C[l, m] = (2/N) * sum_n W_l cos(alpha*pi*l*(2n+1)/(2N))
                          * W_m cos(alpha*pi*m*(2n+1)/(2N))

collects the cross-talk between subcarriers l and m.  It is evaluated here
directly from the summation formula, independently of the kernel product in
:mod:`ftnlab.transforms`; the two routes agreeing is a key consistency check.

The pooled distribution of demodulated 2-PAM symbols under that cross-talk
is modelled as an equal-weight two-component Gaussian mixture centred at
-1 and +1 (sigma fitted by maximum likelihood).
"""

from dataclasses import dataclass

import numpy as np
from scipy import optimize, stats

from .exceptions import ParameterError
from .transforms import TransformKind, demultiplex, make_plan, multiplex, validate_size_alpha

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


def correlation_matrix(kind, n, alpha):
    """Evaluate the subcarrier correlation matrix by direct summation."""
    validate_size_alpha(n, alpha)
    n = int(n)
    alpha = float(alpha)
    samp = np.arange(n)[:, None]
    sub = np.arange(n)[None, :]
    if kind is TransformKind.FRCT:
        weight = np.where(sub == 0, 1.0 / np.sqrt(2.0), 1.0)
        # terms[j, l] = W_l * cos(alpha*pi*l*(2j+1)/(2N))
        terms = weight * np.cos(alpha * np.pi * sub * (2 * samp + 1) / (2 * n))
        entries = (2.0 / n) * terms.T @ terms
    elif kind is TransformKind.FRHT:
        theta = 2.0 * np.pi * alpha * samp * sub / n
        terms = np.cos(theta) + np.sin(theta)
        entries = (1.0 / n) * terms.T @ terms
    else:
        raise ParameterError(f"kind must be a TransformKind, got {kind!r}")
    # Symmetrize exactly; the formula is symmetric but BLAS need not be.
    entries = 0.5 * (entries + entries.T)
    return CorrelationMatrix(kind=kind, n=n, alpha=alpha, entries=entries)


def ici_power(c, k):
    """Interference variance on subcarrier k for unit-power independent symbols:
    sum over l != k of C[k, l]^2."""
    if not 0 <= k < c.n:
        raise ParameterError(f"k must lie in [0, {c.n}), got {k!r}")
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
    levels: tuple = (-1.0, 1.0)

    def __post_init__(self):
        if not self.sigma > 0:
            raise ParameterError(f"sigma must be > 0, got {self.sigma!r}")


def mixture_pdf(model, x):
    s = model.sigma
    x = np.asarray(x, dtype=np.float64)
    norm = 1.0 / (2.0 * np.sqrt(2.0 * np.pi) * s)
    return norm * (
        np.exp(-((x + 1.0) ** 2) / (2.0 * s * s))
        + np.exp(-((x - 1.0) ** 2) / (2.0 * s * s))
    )


def mixture_cdf(model, x):
    s = model.sigma
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * (stats.norm.cdf((x + 1.0) / s) + stats.norm.cdf((x - 1.0) / s))


def fit_sigma_mle(samples):
    """Maximum-likelihood sigma of the +/-1 Gaussian mixture for pooled samples."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ParameterError("samples must be nonempty")

    def nll(s):
        return -np.sum(np.log(mixture_pdf(IciPdfModel(sigma=s), samples) + 1e-300))

    res = optimize.minimize_scalar(nll, bounds=(1e-4, 10.0), method="bounded")
    return float(res.x)


def ks_distance(samples, model):
    """Kolmogorov-Smirnov distance between the sample CDF and the mixture CDF."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    m = x.size
    cdf = mixture_cdf(model, x)
    ecdf_hi = np.arange(1, m + 1) / m
    ecdf_lo = np.arange(0, m) / m
    return float(max(np.max(np.abs(cdf - ecdf_hi)), np.max(np.abs(cdf - ecdf_lo))))


def ici_samples(config, frames, rng_seed):
    """Noiseless transmit/demodulate round trips, pooled over all subcarriers.

    Returns (values, residuals): demodulated outputs normalized by the
    per-subcarrier diagonal gain C[k, k], and the same values minus the
    transmitted +/-1 symbols.  2-PAM only.
    """
    if config.pam_order != 2:
        raise ParameterError("ici_samples requires pam_order == 2")
    if frames < 1:
        raise ParameterError(f"frames must be >= 1, got {frames!r}")
    plan = make_plan(config.kind, config.n, config.alpha)
    diag = np.diag(correlation_matrix(config.kind, config.n, config.alpha).entries)
    rng = np.random.default_rng(rng_seed)
    sent = 2.0 * rng.integers(0, 2, size=(int(frames), config.n)) - 1.0
    received = demultiplex(plan, multiplex(plan, sent)) / diag
    return received.ravel(), (received - sent).ravel()


@dataclass(frozen=True)
class IciHistogram:
    bin_edges: np.ndarray
    density: np.ndarray  # normalized by total sample count, incl. out-of-range
    sample_count: int
    residual_mean: float

    @property
    def bin_centers(self):
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


def ici_histogram(config, frames, rng_seed):
    """Histogram of diagonal-normalized demodulated 2-PAM values on a fixed
    [-2, 2] grid with 0.02-wide bins.  Deterministic for a fixed seed."""
    values, residuals = ici_samples(config, frames, rng_seed)
    nbins = int(round((HIST_RANGE[1] - HIST_RANGE[0]) / HIST_BIN_WIDTH))
    counts, edges = np.histogram(values, bins=nbins, range=HIST_RANGE)
    density = counts / (values.size * HIST_BIN_WIDTH)
    return IciHistogram(
        bin_edges=edges,
        density=density,
        sample_count=values.size,
        residual_mean=float(np.mean(residuals)),
    )


def correlation_row(c, k):
    """Columns l and |C[l, k]| for one subcarrier k."""
    if not 0 <= k < c.n:
        raise ParameterError(f"k must lie in [0, {c.n}), got {k!r}")
    return {"l": np.arange(c.n), "abs_C_l_k": np.abs(c.entries[:, k])}

"""Monte Carlo experiment harness: BER sweeps, threshold interpolation,
spectral density estimation, and structured result export.

Sweeps walk the grid (transform kind) x (alpha) x (iteration count) x
(Eb/N0); each grid point detects frame batches of received data rows with
the iterative detector, whose 2-PAM decisions are the received bits, until
it has either seen `min_errors` bit errors or spent `max_bits` bits.

The rows are formed in the data domain.  A data row of 2-PAM levels s,
multiplexed, sent with its prefix through the AWGN channel, stripped and
demultiplexed, arrives as s C + w K, with C = K^T K and w the white noise
on the row's N samples.  So a batch forms its rows S C + sigma W K, all in
float32 from float32 noise, in two GEMMs below alpha = 1 and in none at
alpha = 1: S C as S + S (C - I) with the detector's float32 C - I, and W K
through the float32 kernel, taken at alpha = 1, where K is orthonormal, as
W itself (`channel.apply_awgn`).  It builds no waveform: pilot rows and
prefixes reach no detector.  They still set sigma, which
`channel.noise_sigma` works out from the layout's bit density and its
sample energy, a closed form of the curve's C taken once per curve.

Where C - I cannot move a float32 level, the first GEMM is skipped and S C
is taken as S, which gives the same bytes.  That holds when N max|C - I|
< 2**-26, as at alpha = 1, where C - I is rounding residue: every term of
an entry of S (C - I) is exact, at most max|C - I|, so for N < 2**22 the
float32 sum of its N terms, in any order, is below (4/3) N max|C - I| <
2**-25, and +-1 plus anything below 2**-25 rounds back to +-1.  A curve
decides this once (`_ici_product`).

Reproducibility: the points of one (kind, alpha), a curve, share their
random numbers.  Curves are numbered in (kind, alpha) grid order, and batch
b of curve c draws its bits and unit noise W K from seed sequences derived
from (sweep seed, c, b).  Every point of the curve detects that batch's one
signal S C plus W K scaled by its own sigma, so its rows are those of a
lone point at its Eb/N0, and points at one Eb/N0 detect the same rows
whatever their iteration counts.  A curve runs batches 0, 1, 2, ... in
order, each point counting until its own rule stops it, so every point
runs exactly the chain of a lone point, at any worker count, and no batch
is computed past the stopping point of a curve's last point.

Memory: the curves of a sweep share one frame layout, so each run of curves
reuses one float32 batch workspace for all its batches; it goes with its
run.  The noise W (below alpha = 1), the levels and S (C - I) lie in the
planes of the detector's one `work` array, which are dead by the time it
runs, so detection allocates nothing; with one Eb/N0 the workspace is that
and the rows.  With more than one it holds two data-row arrays more, W K and the
signal S C.  Of the N x N matrices, a sweep keeps two, both float32, in its
curve cache: the transform kernel and one detector C - I, which all of a
curve's iteration counts and its signal share.  It allocates no float64 kernel: the
float32 one is rounded from it in blocks of rows, and sigma's sample energy
reads C and only the cp_len kernel rows of the prefix.
"""

import ctypes
import glob
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache
from itertools import product

import numpy as np

from . import channel, equalize, icimodel, modem, records
from .exceptions import (
    ParameterError, allocating_for, check_alpha, check_integer, check_real, check_type,
)
from .transforms import TransformKind, make_plan

_Z95 = 1.959963984540054

# Conventional hard-decision pre-FEC threshold (7% overhead).
FEC_LIMIT_7PCT = 3.8e-3


def wilson_interval(errors, bits):
    """95% Wilson score interval for a BER estimate."""
    check_real(bits, "bits", 0)
    check_real(errors, "errors", 0, bits, "[]")
    phat = errors / bits
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / bits
    center = (phat + z2 / (2.0 * bits)) / denom
    half = (_Z95 / denom) * math.sqrt(
        phat * (1.0 - phat) / bits + z2 / (4.0 * bits * bits)
    )
    # At the boundaries the exact bound is 0 (or 1); avoid rounding residue.
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == bits else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class SweepSpec:
    config: modem.ModemConfig  # base layout; kind/alpha overridden per point
    alphas: tuple[float, ...]
    ebn0_dbs: tuple[float, ...]
    iteration_counts: tuple[int, ...] = (20,)
    kinds: tuple[TransformKind, ...] = (TransformKind.FRCT,)
    max_bits: int = 1_000_000
    min_errors: int = 100
    frames_per_batch: int = 4
    seed: int = 0

    def __post_init__(self):
        check_type(self.config, modem.ModemConfig, "config")
        check_integer(self.config.data_symbols_per_frame, "data_symbols_per_frame", 1)
        for name in ("alphas", "ebn0_dbs", "iteration_counts", "kinds"):
            axis = getattr(self, name)
            if not isinstance(axis, tuple) or not axis:
                raise ParameterError(f"{name} must be a nonempty tuple, got {axis!r}")
        for alpha in self.alphas:
            check_alpha(alpha)
        for ebn0_db in self.ebn0_dbs:
            check_real(ebn0_db, "ebn0_dbs", *channel.EBN0_DB_RANGE, "[]")
        for kind in self.kinds:
            check_type(kind, TransformKind, "kinds")
        for count in self.iteration_counts:
            check_integer(count, "iteration_counts", 0)
        for name in ("alphas", "ebn0_dbs", "iteration_counts", "kinds"):
            axis = [getattr(v, "value", v) for v in getattr(self, name)]  # kinds by name
            repeated = [v for i, v in enumerate(axis) if v in axis[:i]]
            if repeated:  # one grid point would get two results
                raise ParameterError(f"{name} has a repeated value {repeated[0]}")
        check_integer(self.max_bits, "max_bits", 100_000)
        check_integer(self.min_errors, "min_errors", 0)
        check_integer(self.frames_per_batch, "frames_per_batch", 1)
        check_integer(self.seed, "seed", 0)


@dataclass(frozen=True)
class BerPoint:
    kind: TransformKind
    alpha: float
    ebn0_db: float
    iterations: int
    bits: int
    errors: int
    ber: float
    ci_lo: float
    ci_hi: float


@dataclass(frozen=True)
class BerSweepResult:
    points: tuple

    def curve(self, kind, alpha, iterations):
        """Points of one curve, sorted by Eb/N0."""
        pts = [
            p
            for p in self.points
            if p.kind is kind and p.alpha == alpha and p.iterations == iterations
        ]
        return sorted(pts, key=lambda p: p.ebn0_db)

    def curves(self):
        keys = sorted(
            {(p.kind, p.alpha, p.iterations) for p in self.points},
            key=lambda k: (k[0].value, k[1], k[2]),
        )
        return {k: self.curve(*k) for k in keys}


def _ici_product(off_diagonal):
    """What a batch multiplies its levels S by to form S (C - I): the
    detector's float32 C - I, or None where N max|C - I| < 2**-26 (module
    docstring).  Two reductions, which allocate no N x N temporary."""
    largest = max(float(off_diagonal.max()), -float(off_diagonal.min()))
    return None if len(off_diagonal) * largest < 2.0**-26 else off_diagonal


# The package's one cache, of one entry, as the grid walks (kind, alpha)
# outermost: a curve's float32 plan and its one detector, which runs every
# iteration count, 4 N^2 bytes each, the matrix of its ICI product (the
# detector's C - I or None), and sigma at each of `ebn0_dbs`, for the curve
# and repeated sweeps of it.  C gives the sample energy of every sigma and
# the detector, and is freed before the plan is built.
@lru_cache(maxsize=1)
def _curve(config, ebn0_dbs):
    matrix = icimodel.correlation_matrix(config.kind, config.n, config.alpha)
    energy = channel.expected_sample_energy(config, matrix)
    sigmas = {e: channel.noise_sigma(e, config, energy) for e in ebn0_dbs}
    detector = equalize.IdConfig(matrix)
    del matrix
    plan = make_plan(config.kind, config.n, config.alpha, np.float32)
    return plan, detector, _ici_product(detector.off_diagonal), sigmas


def _workspace(config, n_frames, scaled=False):
    """Float32 buffers for one batch of `n_frames` frames, m data rows, which
    every batch reuses, so a batch allocates (and page-faults) no full-size
    array but its bit draw.  `planes`, (4, m, N), is the detector's `work`:
    plane 0 takes the white noise W below alpha = 1 (at alpha = 1 the noise
    is W, drawn where W K goes), plane 2 any product S (C - I), and with
    one sigma plane 1 the levels S and then the signal S C; `rows` takes the
    noise W K and then the rows detected.  With `scaled`, for a curve of
    more than one Eb/N0, two data-row arrays more: `noise` keeps W K,
    `signal` takes S and then S C, and `rows` takes each point's rows in
    turn."""
    data_rows = (n_frames * config.data_symbols_per_frame, config.n)
    with allocating_for(frames_per_batch=n_frames,
                        data_symbols_per_frame=config.data_symbols_per_frame, n=config.n):
        work = {
            "planes": np.empty((4, *data_rows), np.float32),
            "rows": np.empty(data_rows, np.float32),
        }
        if scaled:
            work["noise"], work["signal"] = (np.empty(data_rows, np.float32) for _ in range(2))
    return work


def _simulate_batch(config, curve, points, n_frames, seed, curve_idx, batch_idx, work):
    """Batch `batch_idx` of curve `curve_idx`, whose `_curve` entry is `curve`;
    returns (bits, the errors of each of `points`), (iterations, sigma) pairs.

    The m data rows are S C + sigma W K (module docstring), W K drawn once
    (as W at alpha = 1) through the curve's float32 plan, all in float32, S C
    formed as S + S (C - I), or as S where `_ici_product` is None, and
    detected by the curve's detector at each point's iteration count; its
    one-byte decisions are the received bits.  Each point's rows are formed
    alike, sigma W K + S C, so they do not depend on the other points; a run
    of points at one sigma detects rows formed once.  `work` is a `_workspace`
    of this layout; if it holds the two scaled arrays, W K and S C are kept in
    them, else formed in place.
    """
    plan, detector, ici, _ = curve
    scaled = "noise" in work
    bits_rng = np.random.default_rng(
        np.random.SeedSequence([seed, curve_idx, batch_idx, 0])
    )
    sent = modem.random_data_bits(config, bits_rng, n_frames)
    planes, rows = work["planes"], work["rows"]
    noise, signal = (work["noise"], work["signal"]) if scaled else (rows, planes[1])
    channel.apply_awgn(np.random.SeedSequence([seed, curve_idx, batch_idx, 1]), plan, len(rows),
                       out=noise, scratch=planes[0])
    # S C = S + S (C - I), from the exact float32 levels S.
    modem.pam_map(sent, out=signal.reshape(-1))
    if ici is not None:
        np.matmul(signal, ici, out=planes[2])
        signal += planes[2]
    errors, formed = [], None
    for iterations, sigma in points:
        if sigma != formed:  # in place with one sigma: the noise is then dead
            np.multiply(noise, sigma, out=rows)
            rows += signal
            formed = sigma
        # The decisions are dead once compared, so they take the error flags.
        index = equalize.id_equalize_frame(detector, rows, iterations, work=planes).reshape(-1)
        wrong = np.not_equal(index, sent.view(np.uint8).reshape(-1), out=index.view(bool))
        errors.append(int(np.count_nonzero(wrong)))
    return sent.size, errors


def _run_curve(spec, curve_idx, kind, alpha, work):
    """Curve number `curve_idx`, the grid points of (`kind`, `alpha`) in grid
    order, in lockstep batches 0, 1, 2, ..., all in `work`, a `_workspace`:
    each point takes batches until its own `min_errors` or `max_bits` stops
    it, and the curve stops with its last point."""
    config = replace(spec.config, kind=kind, alpha=alpha)
    curve = _curve(config, spec.ebn0_dbs)
    sigmas = curve[3]
    grid = list(product(spec.iteration_counts, spec.ebn0_dbs))
    # Eb/N0 by Eb/N0, so that a batch forms each point's rows once.
    order = sorted(range(len(grid)), key=lambda k: k % len(spec.ebn0_dbs))
    bits, errors = [0] * len(grid), [0] * len(grid)

    def running(k):
        return bits[k] < spec.max_bits and (spec.min_errors == 0 or errors[k] < spec.min_errors)

    batch_idx = 0
    while live := [k for k in order if running(k)]:
        batch_bits, batch_errors = _simulate_batch(
            config, curve, [(grid[k][0], sigmas[grid[k][1]]) for k in live],
            spec.frames_per_batch, spec.seed, curve_idx, batch_idx, work,
        )
        for k, point_errors in zip(live, batch_errors):
            bits[k] += batch_bits
            errors[k] += point_errors
        batch_idx += 1
    return [
        BerPoint(kind, alpha, ebn0_db, iterations, b, e, e / b, *wilson_interval(e, b))
        for (iterations, ebn0_db), b, e in zip(grid, bits, errors)
    ]


def _run_curves(spec, run):
    """The curves of `run`, (curve index, (kind, alpha)) pairs, in one `_workspace`."""
    work = _workspace(spec.config, spec.frames_per_batch, len(spec.ebn0_dbs) > 1)
    return [p for idx, (kind, alpha) in run for p in _run_curve(spec, idx, kind, alpha, work)]


def _runs(spec, workers):
    """The numbered curves, (kind, alpha) in grid order, in min(`workers`,
    curves) contiguous runs."""
    curves = list(enumerate(product(spec.kinds, spec.alphas)))
    count = min(workers, len(curves))
    bounds = [len(curves) * i // count for i in range(count + 1)]
    return [curves[a:b] for a, b in zip(bounds, bounds[1:])]


def _usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _openblas():
    """numpy's scipy-openblas through `ctypes`, or None where numpy has none with a thread setter."""
    libs = glob.glob(os.path.dirname(np.__file__) + ".libs/libscipy_openblas*")
    blas = ctypes.CDLL(libs[0]) if libs else None
    if not hasattr(blas, "scipy_openblas_set_num_threads64_"):
        return None
    get, put = blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return blas


def run_ber_sweep(spec, workers=1):
    """Run every grid point; deterministic for a fixed spec, any worker count.

    The curves are cut into min(`workers`, curves, usable CPUs) contiguous
    runs.  Several run on one thread each, with numpy's OpenBLAS pinned to
    one thread until the call returns: the pin is process-wide.  Where it
    cannot be pinned, the runs run serially, with the same points.
    """
    check_type(spec, SweepSpec, "spec")
    check_integer(workers, "workers", 1)
    runs = _runs(spec, min(workers, _usable_cpus()))
    blas = _openblas() if len(runs) > 1 else None
    if blas is None:
        return BerSweepResult(points=tuple(p for run in runs for p in _run_curves(spec, run)))
    threads = blas.scipy_openblas_get_num_threads64_()
    blas.scipy_openblas_set_num_threads64_(1)
    try:
        with ThreadPoolExecutor(len(runs)) as pool:
            results = pool.map(_run_curves, [spec] * len(runs), runs)
            return BerSweepResult(points=tuple(p for points in results for p in points))
    finally:
        blas.scipy_openblas_set_num_threads64_(threads)


# ---------------------------------------------------------------------------
# Threshold interpolation

@dataclass(frozen=True)
class RequiredEbn0:
    """Outcome of a required-Eb/N0 query on one curve.

    status: "ok" (value interpolated), "floor" (curve never reaches the
    target), or "all_below" (even the lowest Eb/N0 point is already below).
    """

    status: str
    ebn0_db: float = math.nan


def _interp_ebn0(curve, target_ber):
    # The first point at or below the target; a curve that only touches it is "ok".
    reached = next((i for i, p in enumerate(curve) if p.ber <= target_ber), None)
    if reached is None:
        return RequiredEbn0(status="floor")
    right = curve[reached]
    if reached == 0 and right.ber < target_ber:
        return RequiredEbn0(status="all_below")
    # A zero-error point gets a half-error continuity floor for the log; where
    # that floor is not below the target, the point itself places the crossing.
    b_right = max(right.ber, 0.5 / right.bits)
    if reached == 0 or b_right >= target_ber:
        return RequiredEbn0(status="ok", ebn0_db=right.ebn0_db)
    left = curve[reached - 1]  # left.ber > target_ber > 0
    log_left = math.log10(left.ber)
    t = (math.log10(target_ber) - log_left) / (math.log10(b_right) - log_left)
    return RequiredEbn0(status="ok", ebn0_db=left.ebn0_db + t * (right.ebn0_db - left.ebn0_db))


def required_ebn0_at_ber(result, target_ber):
    """Log-linear interpolation (linear in dB, log in BER) of the Eb/N0 at
    which each curve crosses `target_ber`; one outcome per curve."""
    check_type(result, BerSweepResult, "result")
    check_real(target_ber, "target_ber", 0, 1)
    return {key: _interp_ebn0(curve, target_ber) for key, curve in result.curves().items()}


# ---------------------------------------------------------------------------
# Spectral density

# Welch's method at scipy's defaults: Hann windows of this many samples,
# overlapping by half.
PSD_SEGMENT = 1024
# The level, below the peak, that marks the band edge.
PSD_EDGE_DB = -10.0


@dataclass(frozen=True)
class PsdEstimate:
    frequency_hz: np.ndarray
    density_db: np.ndarray  # peak-normalized to 0 dB


def estimate_psd(config, frames, seed):
    """Welch-averaged periodogram of a randomly modulated waveform."""
    from scipy import signal

    check_integer(frames, "frames", 1)
    check_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    with allocating_for(frames=frames, data_symbols_per_frame=config.data_symbols_per_frame,
                        n=config.n):
        waveform = modem.transmit(config, modem.random_data_bits(config, rng, frames)).ravel()
    if PSD_SEGMENT > waveform.size:
        raise ParameterError(
            f"frames={frames} give {waveform.size} samples, "
            f"fewer than the {PSD_SEGMENT}-sample Welch segment"
        )
    freq, power = signal.welch(waveform, fs=modem.SAMPLE_RATE, nperseg=PSD_SEGMENT)
    density_db = 10.0 * np.log10(power / np.max(power))
    return PsdEstimate(frequency_hz=freq, density_db=density_db)


def psd_edge(estimate):
    """Highest frequency at which the normalized density still reaches
    `PSD_EDGE_DB`; the band edge of a flat-topped spectrum."""
    above = estimate.frequency_hz[estimate.density_db >= PSD_EDGE_DB]
    if above.size == 0:
        raise ParameterError(f"no bins reach {PSD_EDGE_DB} dB")
    return float(above.max())


# ---------------------------------------------------------------------------
# Export

def _point_record(p):
    return {**asdict(p), "kind": p.kind.value}


def export_results(result, path, format="csv"):
    """Write a harness result (sweep, histogram, or PSD estimate) to disk."""
    records.check_format(format)
    if isinstance(result, BerSweepResult):
        recs = [_point_record(p) for p in result.points]
        if format == "csv":
            header = [f.name for f in fields(BerPoint)]
            records.write_csv(path, [header, *(rec.values() for rec in recs)])
        else:
            records.write_json(path, {"points": recs})
    elif isinstance(result, icimodel.IciHistogram):
        columns = {"bin_center": result.bin_centers, "density": result.density}
        records.write_table(path, format, columns, sample_count=result.sample_count)
    elif isinstance(result, PsdEstimate):
        columns = {"frequency_hz": result.frequency_hz, "density_db": result.density_db}
        records.write_table(path, format, columns)
    else:
        raise ParameterError(f"result of type {type(result).__name__} cannot be exported")

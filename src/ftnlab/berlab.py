"""Monte Carlo experiment harness: BER sweeps, threshold interpolation,
spectral density estimation, and structured result export.

Sweeps walk the grid (transform kind) x (alpha) x (iteration count) x
(Eb/N0); each grid point simulates full transmit -> AWGN -> receive ->
iterative-detection -> demap round trips in fixed-size frame batches until
it has either seen `min_errors` bit errors or spent `max_bits` bits.

Reproducibility: every batch draws its bit and noise streams from a seed
sequence derived from (sweep seed, grid-point index, batch index), and the
stopping decision only looks at batches in index order, so results are
identical for any worker count.
"""

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product

import numpy as np
from scipy import signal

from . import channel, equalize, icimodel, modem
from .exceptions import ExportError, ParameterError
from .transforms import TransformKind, make_plan

_Z95 = 1.959963984540054

# Conventional hard-decision pre-FEC thresholds.
FEC_LIMIT_7PCT = 3.8e-3
FEC_LIMIT_20PCT = 2.0e-2


def wilson_interval(errors, bits):
    """95% Wilson score interval for a BER estimate."""
    if bits <= 0:
        raise ParameterError(f"bits must be > 0, got {bits!r}")
    if not 0 <= errors <= bits:
        raise ParameterError(f"errors must lie in [0, bits={bits}], got {errors!r}")
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
    alphas: tuple
    ebn0_dbs: tuple
    iteration_counts: tuple = (20,)
    kinds: tuple = (TransformKind.FRCT,)
    max_bits: int = 1_000_000
    min_errors: int = 100
    frames_per_batch: int = 4
    seed: int = 0

    def __post_init__(self):
        for name in ("alphas", "ebn0_dbs", "iteration_counts", "kinds"):
            if len(getattr(self, name)) == 0:
                raise ParameterError(f"{name} must be nonempty")
        if self.max_bits < 100_000:
            raise ParameterError(f"max_bits must be >= 100000, got {self.max_bits!r}")
        if self.min_errors < 0:
            raise ParameterError(f"min_errors must be >= 0, got {self.min_errors!r}")
        if self.frames_per_batch < 1:
            raise ParameterError(
                f"frames_per_batch must be >= 1, got {self.frames_per_batch!r}"
            )

    def grid(self):
        """Grid points in their fixed enumeration (and output) order."""
        return list(product(self.kinds, self.alphas, self.iteration_counts, self.ebn0_dbs))


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


def bits_per_sample(config):
    """Net information bits per transmitted sample (overhead symbols and the
    cyclic prefix carry no counted bits)."""
    return (
        math.log2(config.pam_order)
        * config.n
        * config.data_symbols_per_frame
        / ((config.n + config.cp_len) * config.symbols_per_frame)
    )


@lru_cache(maxsize=64)
def _point_matrix(kind, n, alpha):
    return icimodel.correlation_matrix(kind, n, alpha)


def _simulate_batch(config, n_frames, ebn0_db, iterations, seed, point_idx, batch_idx):
    """One frame batch at one grid point; returns (bits, errors).

    The batch is one (frames, rows, n) array: every frame is multiplexed in
    one product, the noise covers the serialized waveform (pilots and
    prefixes included) in transmit order, and only the data rows are
    demultiplexed.
    """
    bits_rng = np.random.default_rng(
        np.random.SeedSequence([seed, point_idx, batch_idx, 0])
    )
    sent = np.stack([modem.random_data_bits(config, bits_rng) for _ in range(n_frames)])
    plan = make_plan(config.kind, config.n, config.alpha)
    blocks = modem._to_blocks(plan, config.cp_len, modem._frame_rows(config, sent))
    spec = channel.AwgnSpec(
        eb_n0_db=ebn0_db,
        bits_per_sample=bits_per_sample(config),
        rng_seed=np.random.SeedSequence([seed, point_idx, batch_idx, 1]),
    )
    noisy = channel.apply_awgn(spec, blocks.ravel()).reshape(blocks.shape)
    _, _, data = modem._split_rows(config, noisy)
    received = modem._from_blocks(plan, config.cp_len, data)
    id_cfg = equalize.IdConfig(
        iterations=iterations,
        matrix=_point_matrix(config.kind, config.n, config.alpha),
        constellation=config.pam_order,
    )
    decided = equalize.id_equalize_frame(id_cfg, received.reshape(-1, config.n))
    rx_bits = modem.pam_demap(decided.ravel(), config.pam_order)
    return sent.size, int(np.sum(rx_bits != sent.ravel()))


def _run_point(spec, point_idx, kind, alpha, iterations, ebn0_db, workers):
    config = replace(spec.config, kind=kind, alpha=alpha)
    bits_per_batch = (
        spec.frames_per_batch
        * config.data_symbols_per_frame
        * config.bits_per_symbol
    )
    if bits_per_batch == 0:
        raise ParameterError("frame layout carries zero data bits per batch")
    total_bits = 0
    total_errors = 0
    batch_idx = 0
    done = False
    while not done:
        wave = list(range(batch_idx, batch_idx + max(1, workers)))
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(
                    pool.map(
                        lambda b: _simulate_batch(
                            config, spec.frames_per_batch, ebn0_db, iterations,
                            spec.seed, point_idx, b,
                        ),
                        wave,
                    )
                )
        else:
            results = [
                _simulate_batch(
                    config, spec.frames_per_batch, ebn0_db, iterations,
                    spec.seed, point_idx, b,
                )
                for b in wave
            ]
        # Consume in batch-index order so the stopping point is worker-invariant.
        for bits, errors in results:
            total_bits += bits
            total_errors += errors
            if (
                spec.min_errors > 0 and total_errors >= spec.min_errors
            ) or total_bits >= spec.max_bits:
                done = True
                break
        batch_idx = wave[-1] + 1
    lo, hi = wilson_interval(total_errors, total_bits)
    return BerPoint(
        kind=kind,
        alpha=alpha,
        ebn0_db=ebn0_db,
        iterations=iterations,
        bits=total_bits,
        errors=total_errors,
        ber=total_errors / total_bits,
        ci_lo=lo,
        ci_hi=hi,
    )


def run_ber_sweep(spec, workers=1):
    """Run every grid point; deterministic for a fixed spec, any worker count."""
    points = []
    for idx, (kind, alpha, iterations, ebn0_db) in enumerate(spec.grid()):
        points.append(
            _run_point(spec, idx, kind, alpha, iterations, ebn0_db, workers)
        )
    return BerSweepResult(points=tuple(points))


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
    bers = [p.ber for p in curve]
    if all(b > target_ber for b in bers):
        return RequiredEbn0(status="floor")
    if bers[0] < target_ber:
        return RequiredEbn0(status="all_below")
    for left, right in zip(curve, curve[1:]):
        if left.ber >= target_ber and right.ber < target_ber:
            # Zero-error points get a half-error continuity floor for the log.
            b_left = max(left.ber, 0.5 / left.bits)
            b_right = max(right.ber, 0.5 / right.bits)
            t = (math.log10(target_ber) - math.log10(b_left)) / (
                math.log10(b_right) - math.log10(b_left)
            )
            return RequiredEbn0(
                status="ok", ebn0_db=left.ebn0_db + t * (right.ebn0_db - left.ebn0_db)
            )
    return RequiredEbn0(status="floor")


def required_ebn0_at_ber(result, target_ber):
    """Log-linear interpolation (linear in dB, log in BER) of the Eb/N0 at
    which each curve crosses `target_ber`; one outcome per curve."""
    if not 0.0 < target_ber < 1.0:
        raise ParameterError(f"target_ber must lie in (0, 1), got {target_ber!r}")
    return {key: _interp_ebn0(curve, target_ber) for key, curve in result.curves().items()}


# ---------------------------------------------------------------------------
# Spectral density

@dataclass(frozen=True)
class PsdEstimate:
    frequency_hz: np.ndarray
    density_db: np.ndarray  # peak-normalized to 0 dB
    segment: int
    overlap: float
    window: str


def estimate_psd(config, frames, seed, segment=1024, overlap=0.5, window="hann"):
    """Welch-averaged periodogram of a randomly modulated waveform."""
    if frames < 1:
        raise ParameterError(f"frames must be >= 1, got {frames!r}")
    if segment < 2 or segment & (segment - 1):
        raise ParameterError(f"segment must be a power of two >= 2, got {segment!r}")
    rng = np.random.default_rng(seed)
    waveform = np.concatenate(
        [
            modem.transmit(
                config, modem.make_frame(config, modem.random_data_bits(config, rng))
            ).samples
            for _ in range(int(frames))
        ]
    )
    if segment > waveform.size:
        raise ParameterError(
            f"segment {segment} exceeds waveform length {waveform.size}"
        )
    freq, power = signal.welch(
        waveform,
        fs=config.sample_rate,
        window=window,
        nperseg=segment,
        noverlap=int(segment * overlap),
    )
    density_db = 10.0 * np.log10(power / np.max(power))
    return PsdEstimate(
        frequency_hz=freq,
        density_db=density_db,
        segment=segment,
        overlap=overlap,
        window=window,
    )


def psd_edge(estimate, threshold_db=-10.0):
    """Highest frequency at which the normalized density still reaches the
    threshold; the band edge of a flat-topped spectrum."""
    above = estimate.frequency_hz[estimate.density_db >= threshold_db]
    if above.size == 0:
        raise ParameterError(f"no bins reach {threshold_db} dB")
    return float(above.max())


# ---------------------------------------------------------------------------
# Export / import

CSV_HEADER = ["kind", "alpha", "ebn0_db", "iterations", "bits", "errors", "ber", "ci_lo", "ci_hi"]


def _point_record(p):
    return {
        "kind": p.kind.value,
        "alpha": p.alpha,
        "ebn0_db": p.ebn0_db,
        "iterations": p.iterations,
        "bits": p.bits,
        "errors": p.errors,
        "ber": p.ber,
        "ci_lo": p.ci_lo,
        "ci_hi": p.ci_hi,
    }


def _sweep_to_csv(result, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for p in result.points:
            writer.writerow(
                [
                    p.kind.value,
                    repr(p.alpha),
                    repr(p.ebn0_db),
                    p.iterations,
                    p.bits,
                    p.errors,
                    repr(p.ber),
                    repr(p.ci_lo),
                    repr(p.ci_hi),
                ]
            )


def _sweep_from_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        points = tuple(
            BerPoint(
                kind=TransformKind(row["kind"]),
                alpha=float(row["alpha"]),
                ebn0_db=float(row["ebn0_db"]),
                iterations=int(row["iterations"]),
                bits=int(row["bits"]),
                errors=int(row["errors"]),
                ber=float(row["ber"]),
                ci_lo=float(row["ci_lo"]),
                ci_hi=float(row["ci_hi"]),
            )
            for row in reader
        )
    return BerSweepResult(points=points)


def export_results(result, path, format="csv"):
    """Write a harness result (sweep, histogram, or PSD estimate) to disk."""
    if format not in ("csv", "json"):
        raise ParameterError(f"format must be 'csv' or 'json', got {format!r}")
    try:
        if isinstance(result, BerSweepResult):
            if format == "csv":
                _sweep_to_csv(result, path)
            else:
                with open(path, "w") as fh:
                    json.dump({"points": [_point_record(p) for p in result.points]}, fh, indent=2)
                    fh.write("\n")
        elif isinstance(result, icimodel.IciHistogram):
            if format == "csv":
                icimodel.histogram_to_csv(result, path)
            else:
                with open(path, "w") as fh:
                    json.dump(
                        {
                            "bin_center": [float(c) for c in result.bin_centers],
                            "density": [float(d) for d in result.density],
                            "sample_count": result.sample_count,
                        },
                        fh,
                        indent=2,
                    )
                    fh.write("\n")
        elif isinstance(result, PsdEstimate):
            if format == "csv":
                with open(path, "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["frequency_hz", "density_db"])
                    for f, d in zip(result.frequency_hz, result.density_db):
                        writer.writerow([repr(float(f)), repr(float(d))])
            else:
                with open(path, "w") as fh:
                    json.dump(
                        {
                            "frequency_hz": [float(f) for f in result.frequency_hz],
                            "density_db": [float(d) for d in result.density_db],
                            "segment": result.segment,
                            "overlap": result.overlap,
                            "window": result.window,
                        },
                        fh,
                        indent=2,
                    )
                    fh.write("\n")
        else:
            raise ParameterError(f"unsupported result type {type(result).__name__}")
    except OSError as exc:
        raise ExportError(f"{path}: {exc}")


def import_sweep(path, format="csv"):
    """Re-load an exported BER sweep; round-trips exactly."""
    try:
        if format == "csv":
            return _sweep_from_csv(path)
        if format == "json":
            with open(path) as fh:
                payload = json.load(fh)
            points = tuple(
                BerPoint(
                    kind=TransformKind(rec["kind"]),
                    alpha=rec["alpha"],
                    ebn0_db=rec["ebn0_db"],
                    iterations=rec["iterations"],
                    bits=rec["bits"],
                    errors=rec["errors"],
                    ber=rec["ber"],
                    ci_lo=rec["ci_lo"],
                    ci_hi=rec["ci_hi"],
                )
                for rec in payload["points"]
            )
            return BerSweepResult(points=points)
    except OSError as exc:
        raise ExportError(f"{path}: {exc}")
    raise ParameterError(f"format must be 'csv' or 'json', got {format!r}")

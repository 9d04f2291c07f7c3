"""End-to-end acceptance gate.

Twelve numbered criteria covering calibration, BER-curve claims,
interference statistics, spectral compression, rate/capacity accounting,
and reproducibility.  Each test prints one `[criterion NN] PASS/FAIL`
line with the measured values before asserting, so a red run still
reports every measurement.
"""

import json
import math

import numpy as np
import pytest
from scipy.special import erfc

from ftnlab.berlab import (
    FEC_LIMIT_7PCT,
    SweepSpec,
    estimate_psd,
    psd_edge,
    required_ebn0_at_ber,
    run_ber_sweep,
)
from ftnlab.capacity import CapacityParams, capacity_ftn, shannon_limit
from ftnlab.cli import main as cli_main
from ftnlab.icimodel import (
    IciPdfModel,
    correlation_matrix,
    fit_sigma_mle,
    ici_samples,
    ks_distance,
)
from ftnlab.modem import ModemConfig, experiment_baseline, rate_report
from ftnlab.transforms import TransformKind, make_plan

WORKERS = 4


def check(num, name, condition, detail):
    status = "PASS" if condition else "FAIL"
    line = f"[criterion {num:02d}] {status} {name}: {detail}"
    print(line)
    assert condition, line


def qfunc(x):
    return 0.5 * erfc(x / math.sqrt(2.0))


def _clean_config(**overrides):
    """Overhead-free layout so one transmitted sample carries one bit."""
    base = dict(n=256, alpha=1.0, cp_len=0, data_symbols_per_frame=128,
                training_symbols=0, sync_symbols=0)
    base.update(overrides)
    return ModemConfig(**base)


def _sweep(config, alphas, ebn0_dbs, iterations=(20,), kinds=(TransformKind.FRCT,),
           max_bits=2_000_000, min_errors=400, seed=0):
    spec = SweepSpec(
        config=config,
        alphas=alphas,
        ebn0_dbs=ebn0_dbs,
        iteration_counts=iterations,
        kinds=kinds,
        max_bits=max_bits,
        min_errors=min_errors,
        frames_per_batch=4,
        seed=seed,
    )
    return run_ber_sweep(spec, workers=WORKERS)


@pytest.fixture(scope="session")
def main_curves_sweep():
    """FrCT curves at alpha in {1.0, 0.9, 0.8} over 4-9 dB, I=20."""
    return _sweep(
        experiment_baseline(),
        alphas=(1.0, 0.9, 0.8),
        ebn0_dbs=(4.0, 5.0, 6.0, 7.0, 8.0, 9.0),
        max_bits=4_000_000,
    )


@pytest.fixture(scope="session")
def alpha07_sweep():
    return _sweep(experiment_baseline(), alphas=(0.7,), ebn0_dbs=(8.0, 12.0, 16.0, 20.0))


@pytest.fixture(scope="session")
def matched_spacing_sweeps():
    """FrCT vs FrHT at equal subcarrier spacing, 12 dB, I=20."""
    frct = _sweep(experiment_baseline(), alphas=(0.9, 0.8, 0.7), ebn0_dbs=(12.0,))
    frht = _sweep(
        experiment_baseline(), alphas=(0.45, 0.4, 0.35), ebn0_dbs=(12.0,),
        kinds=(TransformKind.FRHT,),
    )
    return frct, frht


class TestCriterion01:
    def test_criterion_01_orthogonal_calibration(self):
        # Hard decision only (I=0), no overhead, >= 1e6 bits per point.
        details = []
        ok = True
        for ebn0_db, max_bits in ((4.0, 2_000_000), (6.0, 2_000_000), (8.0, 8_000_000)):
            result = _sweep(
                _clean_config(), alphas=(1.0,), ebn0_dbs=(ebn0_db,),
                iterations=(0,), max_bits=max_bits, min_errors=0,
            )
            p = result.points[0]
            gamma = 10.0 ** (ebn0_db / 10.0)
            theory = qfunc(math.sqrt(2.0 * gamma))
            rel = abs(p.ber - theory) / theory
            ok &= p.bits >= 1_000_000 and rel <= 0.10
            details.append(f"{ebn0_db:g}dB ber={p.ber:.3e} theory={theory:.3e} rel={rel:.3f}")
        check(1, "orthogonal calibration vs Q(sqrt(2 Eb/N0))", ok, "; ".join(details))


class TestCriterion02:
    def test_criterion_02_alpha09_matches_orthogonal(self, main_curves_sweep):
        req = required_ebn0_at_ber(main_curves_sweep, FEC_LIMIT_7PCT)
        r1 = req[(TransformKind.FRCT, 1.0, 20)]
        r09 = req[(TransformKind.FRCT, 0.9, 20)]
        gap = r09.ebn0_db - r1.ebn0_db
        ok = r1.status == "ok" and r09.status == "ok" and abs(gap) <= 0.5
        check(
            2, "alpha=0.9 matches alpha=1 at BER 3.8e-3", ok,
            f"required Eb/N0: alpha1={r1.ebn0_db:.2f}dB alpha0.9={r09.ebn0_db:.2f}dB "
            f"gap={gap:+.2f}dB (|gap| <= 0.5)",
        )


class TestCriterion03:
    def test_criterion_03_alpha08_two_db_penalty(self, main_curves_sweep):
        req = required_ebn0_at_ber(main_curves_sweep, FEC_LIMIT_7PCT)
        r1 = req[(TransformKind.FRCT, 1.0, 20)]
        r08 = req[(TransformKind.FRCT, 0.8, 20)]
        gap = r08.ebn0_db - r1.ebn0_db
        ok = r1.status == "ok" and r08.status == "ok" and abs(gap - 2.0) <= 0.75
        check(
            3, "alpha=0.8 penalty is 2.0 +/- 0.75 dB at BER 3.8e-3", ok,
            f"required Eb/N0: alpha1={r1.ebn0_db:.2f}dB alpha0.8={r08.ebn0_db:.2f}dB "
            f"gap={gap:+.2f}dB",
        )


class TestCriterion04:
    def test_criterion_04_alpha07_floors(self, alpha07_sweep):
        req = required_ebn0_at_ber(alpha07_sweep, 1e-3)
        r07 = req[(TransformKind.FRCT, 0.7, 20)]
        curve = alpha07_sweep.curve(TransformKind.FRCT, 0.7, 20)
        bers = ", ".join(f"{p.ebn0_db:g}dB={p.ber:.2e}" for p in curve)
        check(
            4, "alpha=0.7 floors above BER 1e-3 up to 20 dB",
            r07.status == "floor", f"status={r07.status!r}; curve: {bers}",
        )


class TestCriterion05:
    def test_criterion_05a_frct_beats_frht_at_matched_spacing(
        self, matched_spacing_sweeps
    ):
        frct, frht = matched_spacing_sweeps
        details = []
        ok = True
        for a_cos, a_cas in ((0.9, 0.45), (0.8, 0.4), (0.7, 0.35)):
            pc = frct.curve(TransformKind.FRCT, a_cos, 20)[0]
            ph = frht.curve(TransformKind.FRHT, a_cas, 20)[0]
            separated = pc.ber < ph.ber and pc.ci_hi < ph.ci_lo
            ok &= separated
            details.append(
                f"FrCT({a_cos})={pc.ber:.2e}[{pc.ci_lo:.1e},{pc.ci_hi:.1e}] vs "
                f"FrHT({a_cas})={ph.ber:.2e}[{ph.ci_lo:.1e},{ph.ci_hi:.1e}]"
            )
        check(5, "FrCT < FrHT at 12 dB with CI separation", ok, "; ".join(details))

    def test_criterion_05b_frht_45pct_flattens(self):
        result = _sweep(
            experiment_baseline(), alphas=(0.45,), ebn0_dbs=(10.0, 20.0),
            kinds=(TransformKind.FRHT,),
        )
        curve = result.curve(TransformKind.FRHT, 0.45, 20)
        b10, b20 = curve[0].ber, curve[1].ber
        check(
            5, "FrHT 45% spacing flattens (BER(20dB) > 0.5*BER(10dB))",
            b20 > 0.5 * b10,
            f"ber(10dB)={b10:.3e} ber(20dB)={b20:.3e} ratio={b20 / b10:.3f}",
        )


class TestCriterion06:
    def test_criterion_06a_alpha08_improves_with_iterations(self):
        result = _sweep(
            experiment_baseline(), alphas=(0.8,), ebn0_dbs=(20.0,), iterations=(5, 20)
        )
        p5 = result.curve(TransformKind.FRCT, 0.8, 5)[0]
        p20 = result.curve(TransformKind.FRCT, 0.8, 20)[0]
        check(
            6, "alpha=0.8 at 20 dB: I=20 beats I=5 with CI separation",
            p20.ber < p5.ber and p20.ci_hi < p5.ci_lo,
            f"I=5 ber={p5.ber:.3e}[{p5.ci_lo:.1e},{p5.ci_hi:.1e}] "
            f"I=20 ber={p20.ber:.3e}[{p20.ci_lo:.1e},{p20.ci_hi:.1e}]",
        )

    def test_criterion_06b_alpha07_saturates(self):
        result = _sweep(
            experiment_baseline(), alphas=(0.7,), ebn0_dbs=(20.0,), iterations=(20, 40),
            min_errors=500,
        )
        p20 = result.curve(TransformKind.FRCT, 0.7, 20)[0]
        p40 = result.curve(TransformKind.FRCT, 0.7, 40)[0]
        ratio = p40.ber / p20.ber
        check(
            6, "alpha=0.7 at 20 dB saturates (BER(I=40)/BER(I=20) in [0.5, 1.5])",
            0.5 <= ratio <= 1.5,
            f"I=20 ber={p20.ber:.3e} I=40 ber={p40.ber:.3e} ratio={ratio:.3f}",
        )


class TestCriterion07:
    def test_criterion_07_ici_mixture_fit(self):
        cfg = _clean_config(alpha=0.8)
        values, _ = ici_samples(cfg, frames=4096, rng_seed=0)
        sigma = fit_sigma_mle(values)
        ks = ks_distance(values, IciPdfModel(sigma=sigma))
        check(
            7, "alpha=0.8 ICI histogram fits the two-Gaussian mixture",
            ks < 0.02,
            f"frames=4096 samples={values.size} sigma_mle={sigma:.4f} ks={ks:.4f} (< 0.02)",
        )


class TestCriterion08:
    def test_criterion_08_correlation_consistency(self):
        worst = 0.0
        for n in (2, 8, 64, 256):
            for alpha in (1.0, 0.9, 0.8, 0.7):
                c = correlation_matrix(TransformKind.FRCT, n, alpha)
                plan = make_plan(TransformKind.FRCT, n, alpha)
                dev = float(np.max(np.abs(c.entries - plan.kernel.T @ plan.kernel)))
                worst = max(worst, dev)
        check(
            8, "C(alpha) equals the kernel composition on the full grid",
            worst < 1e-10, f"max |C - K^T K| = {worst:.2e} over N x alpha grid",
        )


class TestCriterion09:
    def test_criterion_09_psd_edges(self):
        edges = {}
        for alpha in (1.0, 0.9, 0.8, 0.7):
            cfg = _clean_config(alpha=alpha, data_symbols_per_frame=32)
            edges[alpha] = psd_edge(estimate_psd(cfg, frames=8, seed=0))
        expected = {0.9: 4.5e9, 0.8: 4.0e9, 0.7: 3.5e9}
        ok = True
        details = [f"edge(1.0)={edges[1.0] / 1e9:.3f}GHz"]
        for alpha, target in expected.items():
            ratio = edges[alpha] / edges[1.0]
            ok &= abs(edges[alpha] - target) <= 0.2e9 and abs(ratio - alpha) <= 0.05
            details.append(
                f"edge({alpha})={edges[alpha] / 1e9:.3f}GHz ratio={ratio:.3f}"
            )
        check(9, "PSD edges compress in proportion to alpha", ok, "; ".join(details))


class TestCriterion10:
    def test_criterion_10_rate_accounting(self):
        report = rate_report(experiment_baseline(alpha=0.8))
        exact = 1.0 * 10e9 * (256 / 272) * (128 / 139)
        ratio = report.symbol_rate / report.nyquist_rate
        # The frame arithmetic gives 8.667 Gbit/s, quoted as "approximately
        # 8.7"; the acceptance band is read as 8.70 +/- 1% relative.
        ok = (
            report.net_bit_rate == pytest.approx(exact, rel=1e-12)
            and abs(report.net_bit_rate - 8.70e9) <= 0.01 * 8.70e9
            and ratio == 1.25
        )
        check(
            10, "net bit rate and FTN rate ratio", ok,
            f"net={report.net_bit_rate / 1e9:.4f}Gbit/s (closed form "
            f"{exact / 1e9:.4f}, band 8.70 +/- 1%) ratio={ratio}",
        )


class TestCriterion11:
    def test_criterion_11_capacity_reductions(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            p = CapacityParams(
                bandwidth_hz=float(rng.uniform(1e6, 1e10)),
                signal_power=float(rng.uniform(0.01, 100.0)),
                noise_power=float(rng.uniform(0.01, 100.0)),
            )
            shannon = shannon_limit(p)
            worst = max(worst, abs(capacity_ftn(p) - shannon) / shannon)
        base = CapacityParams(bandwidth_hz=4e9, signal_power=9.0, noise_power=1.0)
        gain = capacity_ftn(
            CapacityParams(bandwidth_hz=4e9, signal_power=9.0, noise_power=1.0, alpha=0.8)
        ) / shannon_limit(base)
        ok = worst < 1e-14 and gain == 1.25
        check(
            11, "capacity bound reductions", ok,
            f"max rel dev from Shannon at alpha=1: {worst:.1e}; "
            f"alpha=0.8 gain = {gain} (exactly 1.25)",
        )


class TestCriterion12:
    def test_criterion_12_manifest_determinism(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "n": 64, "cp_len": 4, "data_symbols_per_frame": 16, "training_symbols": 0,
            "sync_symbols": 0, "alpha": [0.9], "ebn0_db": [6.0, 8.0], "iterations": [10],
            "kind": ["FrCT"], "max_bits": 1_000_000, "min_errors": 100,
            "frames_per_batch": 2, "seed": 0,
        }))
        out = tmp_path / "sweep.csv"
        assert cli_main(["sweep-ber", "--config", str(cfg), "--out", str(out),
                         "--workers", "1"]) == 0
        original = out.read_bytes()
        manifest = str(tmp_path / "sweep.csv.manifest.json")
        # Rerun at 8 workers, then replay the saved manifest.
        out8 = tmp_path / "sweep8.csv"
        assert cli_main(["sweep-ber", "--config", str(cfg), "--out", str(out8),
                         "--workers", "8"]) == 0
        eight_workers = out8.read_bytes()
        out.unlink()
        assert cli_main(["--manifest", manifest]) == 0
        replay = out.read_bytes()
        capsys.readouterr()
        ok = eight_workers == original and replay == original
        check(
            12, "sweep reruns are byte-identical at 1 and 8 workers", ok,
            f"csv bytes={len(original)}; workers8 identical={eight_workers == original}; "
            f"manifest replay identical={replay == original}",
        )

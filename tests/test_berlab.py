"""Monte Carlo harness: intervals, sweeps, determinism, thresholds, PSD, export."""

import collections
import contextlib
import csv
import json
import inspect
import math
import re
import sys
import threading
import tracemalloc
import weakref
from dataclasses import asdict, fields, replace
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import erfc

from ftnlab import berlab, channel, equalize, icimodel, modem, transforms
from ftnlab.berlab import (
    BerPoint,
    BerSweepResult,
    FEC_LIMIT_7PCT,
    PsdEstimate,
    RequiredEbn0,
    SweepSpec,
    estimate_psd,
    export_results,
    psd_edge,
    required_ebn0_at_ber,
    run_ber_sweep,
    wilson_interval,
    _curve,
    _ici_product,
    _simulate_batch,
    _workspace,
)
from ftnlab.exceptions import ParameterError
from ftnlab.icimodel import correlation_matrix
from ftnlab.modem import ModemConfig, experiment_baseline
from ftnlab.transforms import TransformKind
from timedomain import data_bodies, receive


def _small_config(**overrides):
    base = dict(n=64, cp_len=4, data_symbols_per_frame=16,
                training_symbols=0, sync_symbols=0)
    base.update(overrides)
    return ModemConfig(**base)


def _fast_spec(**overrides):
    base = dict(
        config=_small_config(),
        alphas=(0.9,),
        ebn0_dbs=(6.0,),
        iteration_counts=(10,),
        max_bits=100_000,
        min_errors=50,
        frames_per_batch=2,
        seed=0,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(37, 10_000)
        assert lo < 37 / 10_000 < hi

    def test_zero_errors(self):
        lo, hi = wilson_interval(0, 1_000)
        assert lo == 0.0
        assert 0.0 < hi < 0.01

    def test_all_errors(self):
        lo, hi = wilson_interval(1_000, 1_000)
        assert hi == 1.0
        assert 0.99 < lo < 1.0

    def test_shrinks_with_sample_size(self):
        lo1, hi1 = wilson_interval(10, 1_000)
        lo2, hi2 = wilson_interval(100, 10_000)
        assert hi2 - lo2 < hi1 - lo1

    def test_zero_bits_rejected(self):
        with pytest.raises(ParameterError):
            wilson_interval(0, 0)

    @pytest.mark.parametrize("errors", [-1, 11])
    def test_errors_outside_bits_rejected(self, errors):
        with pytest.raises(ParameterError, match="errors"):
            wilson_interval(errors, 10)

    def test_matches_closed_form(self):
        errors, bits, z = 25, 5_000, 1.959963984540054
        phat = errors / bits
        denom = 1 + z * z / bits
        center = (phat + z * z / (2 * bits)) / denom
        half = z / denom * math.sqrt(phat * (1 - phat) / bits + z * z / (4 * bits * bits))
        lo, hi = wilson_interval(errors, bits)
        assert lo == pytest.approx(center - half, rel=1e-12)
        assert hi == pytest.approx(center + half, rel=1e-12)


class TestFecConstants:
    def test_values(self):
        assert FEC_LIMIT_7PCT == 3.8e-3


class TestSweepSpec:
    def test_grid_order(self):
        spec = _fast_spec(
            kinds=(TransformKind.FRCT, TransformKind.FRHT),
            alphas=(1.0, 0.9),
            ebn0_dbs=(4.0, 6.0),
        )
        # The points come out in (kind, alpha, iterations, Eb/N0) order.
        order = [(p.kind, p.alpha, p.iterations, p.ebn0_db) for p in run_ber_sweep(spec).points]
        assert order == list(product(spec.kinds, spec.alphas, spec.iteration_counts,
                                     spec.ebn0_dbs))
        assert len(order) == 8
        assert order[0] == (TransformKind.FRCT, 1.0, 10, 4.0)
        assert order[1] == (TransformKind.FRCT, 1.0, 10, 6.0)
        assert order[-1] == (TransformKind.FRHT, 0.9, 10, 6.0)

    def test_empty_axis_rejected(self):
        with pytest.raises(ParameterError, match="alphas"):
            _fast_spec(alphas=())

    def test_max_bits_floor(self):
        with pytest.raises(ParameterError, match="max_bits"):
            _fast_spec(max_bits=50_000)

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"alphas": (0.8, 1.5)}, "alpha must lie in (0, 1], got 1.5"),
            ({"ebn0_dbs": (6.0, math.nan)}, "ebn0_dbs must lie in [-300, 300], got nan"),
            ({"kinds": ("FrCT",)}, "kinds must be a TransformKind, got str"),
            ({"iteration_counts": (-1,)}, "iteration_counts must be an integer >= 0, got -1"),
            ({"iteration_counts": (5, 2.5)},
             "iteration_counts must be an integer >= 0, got 2.5"),
            ({"frames_per_batch": 1.5}, "frames_per_batch must be an integer >= 1, got 1.5"),
            ({"seed": -1}, "seed must be an integer >= 0, got -1"),
            ({"max_bits": 2.5e5}, "max_bits must be an integer >= 100000, got 250000.0"),
            ({"min_errors": 0.5}, "min_errors must be an integer >= 0, got 0.5"),
            # A repeated axis value would give one grid point two results.
            ({"alphas": (1.0, 0.9, 1.0)}, "alphas has a repeated value 1.0"),
            ({"ebn0_dbs": (4.0, 4.0)}, "ebn0_dbs has a repeated value 4.0"),
            ({"iteration_counts": (10, 20, 20)}, "iteration_counts has a repeated value 20"),
            ({"kinds": (TransformKind.FRCT,) * 2}, "kinds has a repeated value FrCT"),
            ({"kinds": (TransformKind.FRHT, TransformKind.FRCT, TransformKind.FRHT)},
             "kinds has a repeated value FrHT"),
            ({"ebn0_dbs": (0.0, 2.0, -0.0)}, "ebn0_dbs has a repeated value -0.0"),
            ({"alphas": (1, 0.9, 1.0)}, "alphas has a repeated value 1.0"),
            # Refused before any curve runs: sigma would overflow or divide by zero.
            ({"ebn0_dbs": (6.0, 4000.0)}, "ebn0_dbs must lie in [-300, 300], got 4000.0"),
            ({"ebn0_dbs": (-3300.0,)}, "ebn0_dbs must lie in [-300, 300], got -3300.0"),
        ],
        # The field and the case, so that a new wording renames no test.
        ids=["alphas-above-1", "ebn0_dbs-nan", "kinds-str", "iteration_counts-negative",
             "iteration_counts-fraction", "frames_per_batch-fraction", "seed-negative",
             "max_bits-float", "min_errors-fraction", "alphas-repeated", "ebn0_dbs-repeated",
             "iteration_counts-repeated", "kinds-repeated", "kinds-repeated-apart",
             "ebn0_dbs-signed-zero", "alphas-int-and-float", "ebn0_dbs-above-range",
             "ebn0_dbs-below-range"],
    )
    def test_bad_entry_rejected(self, overrides, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            _fast_spec(**overrides)

    def test_axis_values_one_ulp_apart_are_distinct(self):
        alphas = (0.8, math.nextafter(0.8, 1.0))
        ebn0_dbs = (4.0, math.nextafter(4.0, 5.0))
        spec = _fast_spec(alphas=alphas, ebn0_dbs=ebn0_dbs, iteration_counts=(0, 10))
        assert (spec.alphas, spec.ebn0_dbs) == (alphas, ebn0_dbs)
        order = [(p.kind, p.alpha, p.iterations, p.ebn0_db) for p in run_ber_sweep(spec).points]
        assert order == list(product(spec.kinds, alphas, (0, 10), ebn0_dbs))
        assert len(set(order)) == 8

    @pytest.mark.parametrize(
        "field,value",
        [
            ("config", None),
            ("config", {"n": 64}),
            ("alphas", 0.8),
            ("alphas", "0.8"),
            ("alphas", [0.8]),
            ("ebn0_dbs", 6.0),
            ("ebn0_dbs", [6.0]),
            ("iteration_counts", 10),
            ("iteration_counts", range(3)),
            ("kinds", TransformKind.FRCT),
            ("kinds", [TransformKind.FRCT]),
            ("max_bits", "100000"),
            ("min_errors", None),
            ("frames_per_batch", 2.0),
            ("seed", True),
        ],
    )
    def test_wrong_type_names_the_field(self, field, value):
        with pytest.raises(ParameterError, match=f"^{field} must be"):
            _fast_spec(**{field: value})


class TestBitsPerSample:
    def test_no_overhead(self):
        cfg = _small_config(cp_len=0)
        assert cfg.bits_per_sample == pytest.approx(1.0)

    def test_experiment_layout(self):
        cfg = experiment_baseline()
        expected = 1.0 * 256 * 128 / (272 * 139)
        assert cfg.bits_per_sample == pytest.approx(expected, rel=1e-12)

    def test_overhead_only_reduces(self):
        assert _small_config(cp_len=8).bits_per_sample < _small_config(cp_len=0).bits_per_sample

    def test_pilot_rows_only_reduce(self):
        # Pilot rows carry energy but no bits.
        plain = _small_config()
        assert _small_config(training_symbols=4, sync_symbols=1).bits_per_sample == (
            pytest.approx(plain.bits_per_sample * 16 / 21, rel=1e-12))


def _sent_bits(config, n_frames, seed, curve_idx, batch_idx):
    """The bits of batch `batch_idx` of the sweep's curve `curve_idx`."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, curve_idx, batch_idx, 0]))
    return modem.random_data_bits(config, rng, n_frames)


def _ici_tolerance(kind, n, alpha):
    """A bound on the float32 rounding of S (C - I) for rows S of 2-PAM levels:
    each entry of C - I is rounded once, and each float32 dot product of N
    terms, each at most |C - I|_lk, rounds at most N times."""
    off_diagonal = correlation_matrix(kind, n, alpha).entries - np.eye(n)
    return (n + 1) * 2.0**-24 * np.abs(off_diagonal).sum(axis=0).max() + 1e-12


def _sigma(config, ebn0_db):
    """The noise's sigma at `ebn0_db` for the layout `config`."""
    matrix = correlation_matrix(config.kind, config.n, config.alpha)
    return channel.noise_sigma(ebn0_db, config, channel.expected_sample_energy(config, matrix))


def _kernel_row_blocks(monkeypatch):
    """The shape of each block of float64 kernel rows built from here on,
    through either kind's builder, as a list that grows."""
    shapes = []
    for name in ("_frct_kernel", "_frht_kernel"):
        def counted(*args, build=getattr(transforms, name)):
            rows = build(*args)
            shapes.append(rows.shape)
            return rows

        monkeypatch.setattr(transforms, name, counted)
    return shapes


def _detected_rows(monkeypatch, config, points, n_frames, seed, batch_idx, noise_free=False):
    """Run one `_simulate_batch` of curve 2 on `points`, (iterations, Eb/N0)
    pairs, with the layout's detector; returns (its bits and errors, the unit
    white noise W it drew, the rows the detector got at each point)."""
    apply_awgn, detector = channel.apply_awgn, equalize.id_equalize_frame
    drawn, rows = [], []

    def recorded_noise(*args, out, scratch):
        apply_awgn(*args, out=out, scratch=scratch)
        if noise_free:
            out[:] = scratch[:] = 0.0
        drawn.append(scratch.copy())
        return out

    def recorded_rows(id_cfg, received, iterations, **buffers):
        rows.append(received.copy())
        return detector(id_cfg, received, iterations, **buffers)

    monkeypatch.setattr(channel, "apply_awgn", recorded_noise)
    monkeypatch.setattr(equalize, "id_equalize_frame", recorded_rows)
    plan = transforms.make_plan(config.kind, config.n, config.alpha, np.float32)
    id_cfg = equalize.IdConfig(correlation_matrix(config.kind, config.n, config.alpha))
    curve = (plan, id_cfg, _ici_product(id_cfg.off_diagonal), None)
    counts = _simulate_batch(config, curve, [(i, _sigma(config, e)) for i, e in points],
                             n_frames, seed, 2, batch_idx,
                             _workspace(config, n_frames, len({e for _, e in points}) > 1))
    monkeypatch.undo()
    [white] = drawn
    return counts, white, rows


KIND_ALPHA = pytest.mark.parametrize(
    "kind,alpha", [(TransformKind.FRCT, 0.8), (TransformKind.FRHT, 0.45)])


class TestSimulateBatch:
    """The batch's data-domain rows against the time-domain oracle: the
    waveform `modem.transmit` sends, with noise on its samples, received by
    `timedomain.receive`.  The two agree within the float32 rounding of the
    ICI term S (C - I)."""

    @pytest.mark.parametrize("iterations", [0, 1, 20])
    @pytest.mark.parametrize("n_frames", [1, 4])
    @KIND_ALPHA
    @pytest.mark.parametrize("cp_len", [0, 16])
    def test_noise_free_rows_are_the_received_rows(self, monkeypatch, cp_len, kind, alpha,
                                                   n_frames, iterations):
        config = _small_config(
            cp_len=cp_len, kind=kind, alpha=alpha, training_symbols=2, sync_symbols=1,
        )
        id_cfg = equalize.IdConfig(correlation_matrix(kind, config.n, alpha))
        for seed, batch_idx in [(0, 0), (7, 3)]:
            (bits, [errors]), white, [rows] = _detected_rows(
                monkeypatch, config, [(iterations, 6.0)], n_frames, seed, batch_idx,
                noise_free=True)
            sent = _sent_bits(config, n_frames, seed, 2, batch_idx)
            want = receive(config, modem.transmit(config, sent)).reshape(rows.shape)
            assert not white.any() and bits == sent.size
            np.testing.assert_allclose(rows, want, rtol=0,
                                       atol=_ici_tolerance(kind, config.n, alpha))
            index = equalize.id_equalize_frame(id_cfg, rows, iterations)
            assert errors == np.count_nonzero(index.ravel() != sent.ravel())

    @KIND_ALPHA
    @pytest.mark.parametrize("cp_len", [0, 16])
    def test_each_point_gets_its_noise_on_the_data_bodies(self, monkeypatch, cp_len, kind,
                                                          alpha):
        # The unit noise, drawn once and scaled to each point's sigma, against
        # that white noise scaled the same way and placed on the bodies of the
        # waveform's data blocks.  The order returns to 2 dB after 6 dB and to
        # 6 dB after 9 dB.
        config = _small_config(
            cp_len=cp_len, kind=kind, alpha=alpha, training_symbols=2, sync_symbols=1,
        )
        id_cfg = equalize.IdConfig(correlation_matrix(kind, config.n, alpha))
        points = [(0, 2.0), (0, 6.0), (20, 2.0), (0, 9.0), (20, 6.0), (20, 9.0)]
        tolerance = _ici_tolerance(kind, config.n, alpha)
        seen = set()
        for seed, batch_idx in [(0, 0), (7, 3)]:
            (bits, errors), white, rows = _detected_rows(
                monkeypatch, config, points, 4, seed, batch_idx)
            sent = _sent_bits(config, 4, seed, 2, batch_idx)
            clean = modem.transmit(config, sent)
            for (iterations, ebn0_db), point_rows, point_errors in zip(points, rows, errors):
                blocks = clean.copy()
                data_bodies(config, blocks)[:] += (
                    _sigma(config, ebn0_db) * white.reshape(4, -1, config.n))
                want = receive(config, blocks).reshape(point_rows.shape)
                np.testing.assert_allclose(point_rows, want, rtol=0, atol=tolerance)
                index = equalize.id_equalize_frame(id_cfg, point_rows, iterations)
                assert point_errors == np.count_nonzero(index.ravel() != sent.ravel())
                seen.add(point_errors)
        assert len(seen) > 4

    def test_ici_precision_leaves_the_gate_decisions(self, monkeypatch):
        # Over the first four batches of each of the gate's cells (seed 0),
        # at I = 0 and I > 0, the detector decides the float32 batch's rows
        # as it decides float64 rows S C + sigma W K formed from the same
        # white noise W, upcast, through the float64 kernel.
        apply_awgn, detector = channel.apply_awgn, equalize.id_equalize_frame
        baseline = experiment_baseline()
        batch = {}

        def noise_kept(*args, out, scratch):
            apply_awgn(*args, out=out, scratch=scratch)
            sent = _sent_bits(batch["config"], 4, 0, 0, batch["index"])
            levels = modem.pam_map(sent).reshape(-1, baseline.n)
            white = scratch.astype(np.float64)
            batch.update(exact=levels @ batch["c"] + batch["sigma"] * (white @ batch["kernel"]),
                         index=batch["index"] + 1)
            return out

        def compared(id_cfg, rows, iterations, **buffers):
            assert rows.dtype == np.float32
            index = detector(id_cfg, rows, iterations, **buffers).copy()
            exact = detector(id_cfg, batch["exact"], iterations)
            batch["differing"] += int(np.count_nonzero(index != exact))
            batch["decisions"] += index.size
            return index

        monkeypatch.setattr(channel, "apply_awgn", noise_kept)
        monkeypatch.setattr(equalize, "id_equalize_frame", compared)
        differing = decisions = 0
        cells = [
            (TransformKind.FRCT, 0.8, (10.0, 20.0), (0, 5, 20)),
            (TransformKind.FRCT, 0.7, (20.0,), (0, 20, 40)),
            (TransformKind.FRHT, 0.45, (10.0, 20.0), (0, 20)),
        ]
        for kind, alpha, ebn0_dbs, iteration_counts in cells:
            config = replace(baseline, kind=kind, alpha=alpha)
            kernel = transforms.make_plan(kind, baseline.n, alpha).kernel
            for iterations, ebn0_db in product(iteration_counts, ebn0_dbs):
                batch.update(config=config, c=correlation_matrix(kind, baseline.n, alpha).entries,
                             kernel=kernel, sigma=_sigma(config, ebn0_db), index=0,
                             differing=0, decisions=0)
                run_ber_sweep(SweepSpec(
                    config=baseline, alphas=(alpha,), ebn0_dbs=(ebn0_db,),
                    iteration_counts=(iterations,), kinds=(kind,),
                    max_bits=4 * 4 * baseline.data_bits_per_frame, min_errors=0,
                ))
                print(f"[ici precision] {kind.value} alpha={alpha} {ebn0_db} dB I={iterations}: "
                      f"{batch['differing']} of {batch['decisions']} decisions differ")
                differing += batch["differing"]
                decisions += batch["decisions"]
        cell_count = sum(len(e) * len(i) for _, _, e, i in cells)
        assert decisions == cell_count * 4 * 4 * baseline.data_bits_per_frame
        assert differing <= 1e-5 * decisions, (differing, decisions)


def _plus_ici_product(levels, off_diagonal):
    """S + S (C - I) for float32 levels S, through the GEMM a batch runs."""
    product = np.empty_like(levels)
    np.matmul(levels, off_diagonal, out=product)
    return levels + product


class TestIciProduct:
    """A curve skips S (C - I) where C - I cannot move a float32 2-PAM level,
    N max|C - I| < 2**-26, as at alpha = 1, and the batch is the same bytes."""

    @pytest.mark.parametrize("n", [2, 3, 16, 256, 1024])
    @pytest.mark.parametrize("kind", list(TransformKind))
    def test_orthogonal_curve_takes_no_product(self, kind, n):
        config = _small_config(n=n, cp_len=0, kind=kind, alpha=1.0)
        _curve.cache_clear()
        _, detector, ici, _ = _curve(config, (6.0,))
        assert ici is None
        rng = np.random.default_rng(n)
        for m in (max(1, n // 2), n, 2 * n + 1):  # rows below, at and above N
            levels = np.where(rng.integers(0, 2, size=(m, n), dtype=bool),
                              np.float32(1), np.float32(-1))
            formed = _plus_ici_product(levels, detector.off_diagonal)
            assert formed.tobytes() == levels.tobytes()

    @pytest.mark.parametrize("alpha", [0.999, 0.9, 0.5])
    @pytest.mark.parametrize("n", [16, 256])
    @pytest.mark.parametrize("kind", list(TransformKind))
    def test_compressed_curve_keeps_the_product(self, kind, n, alpha):
        _curve.cache_clear()
        _, detector, ici, _ = _curve(_small_config(n=n, kind=kind, alpha=alpha), (6.0,))
        assert ici is detector.off_diagonal

    @pytest.mark.parametrize("sign", [1, -1])
    def test_bound_is_strict(self, sign):
        # N max|C - I| exactly 2**-26 keeps the product; one float32 step
        # under it skips it, and then even a C - I full of that value, on
        # rows of one level, leaves every level as it is.
        n = 16
        at = np.float32(2.0**-26 / n)
        under = np.nextafter(at, np.float32(0))
        for value, kept in [(at, True), (under, False)]:
            off = np.zeros((n, n), np.float32)
            off[3, 5] = sign * value
            assert (_ici_product(off) is off) == kept
        full = np.full((n, n), sign * under, np.float32)
        assert _ici_product(full) is None
        for level in (1, -1):
            levels = np.full((2 * n, n), level, np.float32)
            assert _plus_ici_product(levels, full).tobytes() == levels.tobytes()

    def test_orthogonal_sweep_equals_one_with_the_product(self, monkeypatch):
        spec = _fast_spec(alphas=(1.0,), ebn0_dbs=(0.0, 4.0, 8.0), iteration_counts=(0, 3),
                          kinds=(TransformKind.FRCT, TransformKind.FRHT), min_errors=200)
        _curve.cache_clear()
        skipped = repr(run_ber_sweep(spec).points)
        curve, products = berlab._curve, []

        def forced(config, ebn0_dbs):
            plan, detector, ici, sigmas = curve(config, ebn0_dbs)
            assert ici is None
            products.append(detector.off_diagonal)
            return plan, detector, detector.off_diagonal, sigmas

        monkeypatch.setattr(berlab, "_curve", forced)
        assert repr(run_ber_sweep(spec).points) == skipped
        assert len(products) == 2


# The sweep's two entry points refuse an object of another class by name,
# not with an AttributeError from deep inside.
@pytest.mark.parametrize("value", [None, {"alphas": (1.0,)}, ModemConfig()],
                         ids=["none", "dict", "modem-config"])
@pytest.mark.parametrize("call,expected", [
    (run_ber_sweep, "spec must be a SweepSpec"),
    (lambda value: required_ebn0_at_ber(value, 1e-3), "result must be a BerSweepResult"),
], ids=["run_ber_sweep", "required_ebn0_at_ber"])
def test_entry_point_refuses_another_class(call, expected, value):
    with pytest.raises(ParameterError) as caught:
        call(value)
    assert str(caught.value) == f"{expected}, got {type(value).__name__}"


class TestRunSweep:
    def test_point_fields_consistent(self):
        result = run_ber_sweep(_fast_spec())
        assert len(result.points) == 1
        p = result.points[0]
        assert p.kind is TransformKind.FRCT
        assert (p.alpha, p.iterations, p.ebn0_db) == (0.9, 10, 6.0)
        assert p.ber == p.errors / p.bits
        assert p.ci_lo <= p.ber <= p.ci_hi
        assert p.errors >= 50 or p.bits >= 100_000

    def test_deterministic_across_runs(self):
        a = run_ber_sweep(_fast_spec())
        b = run_ber_sweep(_fast_spec())
        assert a == b

    def test_worker_count_invariant(self):
        spec = _fast_spec(
            kinds=(TransformKind.FRCT, TransformKind.FRHT), alphas=(1.0, 0.8),
            iteration_counts=(0, 10), ebn0_dbs=(2.0, 4.0, 6.0),
        )
        serial = run_ber_sweep(spec, workers=1)
        assert len(serial.points) == 24
        for workers in (2, 4):
            assert run_ber_sweep(spec, workers=workers) == serial

    def test_worker_count_invariant_at_larger_n(self):
        # 16 data rows at N = 256: the detector runs its loop transposed.  The
        # two curves run on worker threads at one BLAS thread, the serial
        # sweep at the calling process's thread count.
        spec = _fast_spec(
            config=_small_config(n=256, cp_len=16), kinds=(TransformKind.FRCT, TransformKind.FRHT),
            alphas=(0.8,), iteration_counts=(0, 10), ebn0_dbs=(4.0, 8.0), frames_per_batch=1,
        )
        serial = run_ber_sweep(spec, workers=1)
        assert len(serial.points) == 8
        assert all(p.errors > 0 for p in serial.points)
        assert run_ber_sweep(spec, workers=2) == serial

    @staticmethod
    def _check_pooled_runs(spec, monkeypatch):
        # A `workers=4` sweep, its runs on threads, which see the counters.
        serial = run_ber_sweep(spec)
        apply_awgn, workspace = channel.apply_awgn, berlab._workspace
        calls, made = [], []

        def counted_awgn(*args, **buffers):
            calls.append(None)
            return apply_awgn(*args, **buffers)

        def counted_workspace(*args):
            made.append(None)
            return workspace(*args)

        monkeypatch.setattr(channel, "apply_awgn", counted_awgn)
        monkeypatch.setattr(berlab, "_workspace", counted_workspace)
        monkeypatch.setattr(berlab, "_usable_cpus", lambda: 4)
        points = run_ber_sweep(spec, workers=4).points
        assert points == serial.points
        # A curve's batches serve all its points and stop with its last one.
        bits_per_batch = spec.frames_per_batch * spec.config.data_bits_per_frame
        curves = {}
        for p in points:
            curves.setdefault((p.kind, p.alpha), []).append(p.bits)
        assert len(calls) == sum(max(bits) // bits_per_batch for bits in curves.values())
        # One workspace per run, and one run per curve.
        assert len(made) == len(curves)

    def test_no_batch_past_the_stopping_point(self, monkeypatch):
        self._check_pooled_runs(_fast_spec(alphas=(1.0, 0.9), ebn0_dbs=(4.0, 6.0, 8.0)),
                                monkeypatch)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt as on Linux")
    def test_batches_reuse_their_heap(self):
        # The orthogonal calibration layout.  Each batch used to allocate and
        # free its full-size arrays, which the heap trimmed and the next batch
        # faulted back in: about 1.9 k minor faults per batch.  Then each point
        # faulted in its own workspace, about 1.4 k per point.  Now a sweep
        # faults in one workspace, so its later points add no faults.  With a
        # second Eb/N0 the workspace gains two data-row arrays (1 MiB, 256
        # pages, each), faulted in once per sweep like the rest: about 750
        # faults more, bounded here by twice their pages.
        import resource

        config = ModemConfig(n=256, alpha=1.0, data_symbols_per_frame=128,
                             training_symbols=0, sync_symbols=0)

        def faults(ebn0_dbs, batches):
            spec = SweepSpec(config=config, alphas=(1.0,), ebn0_dbs=ebn0_dbs,
                             iteration_counts=(0,),
                             max_bits=batches * 4 * config.data_bits_per_frame, min_errors=0,
                             frames_per_batch=4, seed=5)
            first = run_ber_sweep(spec)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            second = run_ber_sweep(spec)
            assert second == first
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        assert faults((6.0,), 40) < 0.1 * 1900 * 40
        one_point = faults((6.0,), 6)
        two_points = faults((4.0, 6.0), 6)
        assert two_points < one_point + 300 + 2 * 2 * 256
        assert faults((4.0, 6.0, 8.0), 6) < two_points + 300
        assert faults((4.0, 6.0, 8.0, 10.0), 6) < two_points + 300

    def test_one_workspace_per_run_of_a_sweep(self, monkeypatch):
        workspace = berlab._workspace
        made = []

        def counted(*args):
            made.append(None)
            return workspace(*args)

        monkeypatch.setattr(berlab, "_workspace", counted)
        spec = _fast_spec(alphas=(1.0, 0.9), ebn0_dbs=(4.0, 6.0, 8.0))
        first = run_ber_sweep(spec)
        # Serially, one for all six points of both curves.
        assert len(made) == 1
        assert run_ber_sweep(spec) == first
        # The workspace goes with its sweep.
        assert len(made) == 2
        monkeypatch.undo()
        self._check_pooled_runs(spec, monkeypatch)

    def test_runs_are_contiguous_in_grid_order(self):
        # Runs hold whole curves, (kind, alpha) in grid order.
        spec = _fast_spec(kinds=(TransformKind.FRCT, TransformKind.FRHT),
                          alphas=(1.0, 0.9, 0.8), ebn0_dbs=(4.0, 6.0, 8.0))
        curves = [(TransformKind.FRCT, 1.0), (TransformKind.FRCT, 0.9), (TransformKind.FRCT, 0.8),
                  (TransformKind.FRHT, 1.0), (TransformKind.FRHT, 0.9), (TransformKind.FRHT, 0.8)]
        for workers, lengths in [(1, [6]), (4, [1, 2, 1, 2]), (6, [1] * 6), (9, [1] * 6)]:
            runs = berlab._runs(spec, workers)
            assert [len(run) for run in runs] == lengths
            assert [c for run in runs for c in run] == list(enumerate(curves))

    @staticmethod
    def _blas_threads():
        return berlab._openblas().scipy_openblas_get_num_threads64_()

    @staticmethod
    def _pooled_two_curves(monkeypatch, cpus=2):
        # A sweep of two curves at `cpus` usable CPUs, and a list that takes
        # every thread started from now on.
        start, started = threading.Thread.start, []

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(berlab, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(threading.Thread, "start", counted)
        return _fast_spec(alphas=(1.0, 0.9), ebn0_dbs=(4.0, 6.0, 8.0)), started

    @pytest.mark.parametrize("cpus,threads", [(1, 0), (2, 2), (3, 2), (8, 2)])
    def test_no_more_threads_than_usable_cpus(self, monkeypatch, cpus, threads):
        # A `workers=4` sweep of two curves starts at most two threads, and
        # none outlives it.
        spec, started = self._pooled_two_curves(monkeypatch, cpus)
        assert run_ber_sweep(spec, workers=4) == run_ber_sweep(spec, workers=1)
        assert len(started) == threads
        assert not any(thread.is_alive() for thread in started)

    @pytest.mark.parametrize("lookup", ["no library", "no setter"])
    def test_unpinnable_blas_runs_serially(self, monkeypatch, lookup):
        # Where numpy's BLAS has no thread setter, a pooled sweep starts no
        # thread and gives the serial points.
        spec, started = self._pooled_two_curves(monkeypatch)
        if lookup == "no library":
            monkeypatch.setattr(berlab, "glob", SimpleNamespace(glob=lambda pattern: []))
        else:
            monkeypatch.setattr(berlab, "ctypes",
                                SimpleNamespace(CDLL=lambda path: SimpleNamespace()))
        assert berlab._openblas() is None
        assert run_ber_sweep(spec, workers=2) == run_ber_sweep(spec, workers=1)
        assert started == []

    @staticmethod
    @contextlib.contextmanager
    def _caller_blas_threads(count):
        # The calling thread sets BLAS to `count` threads, and the test's
        # count comes back after.
        blas = berlab._openblas()
        before = blas.scipy_openblas_get_num_threads64_()
        blas.scipy_openblas_set_num_threads64_(count)
        try:
            yield
        finally:
            blas.scipy_openblas_set_num_threads64_(before)

    @pytest.mark.skipif(berlab._openblas() is None, reason="numpy's BLAS cannot be pinned")
    def test_raising_run_restores_blas_threads(self, monkeypatch):
        # A run's exception reaches the caller, and the caller's BLAS thread
        # count comes back.
        spec, started = self._pooled_two_curves(monkeypatch)
        run_curves = berlab._run_curves

        def raising(spec, run):
            if run[0][0] == 1:
                raise ValueError("curve 1 failed")
            return run_curves(spec, run)

        monkeypatch.setattr(berlab, "_run_curves", raising)
        with self._caller_blas_threads(2):
            with pytest.raises(ValueError, match="curve 1 failed"):
                run_ber_sweep(spec, workers=2)
            assert self._blas_threads() == 2
        assert len(started) == 2 and not any(thread.is_alive() for thread in started)

    @pytest.mark.skipif(berlab._openblas() is None, reason="numpy's BLAS cannot be pinned")
    @pytest.mark.parametrize("caller", [1, 2])
    def test_workers_run_blas_at_one_thread(self, monkeypatch, caller):
        # Each run on a thread of its own, at one BLAS thread; then the
        # caller's count is back.
        spec, started = self._pooled_two_curves(monkeypatch)
        run_curves, seen = berlab._run_curves, []

        def recorded(spec, run):
            seen.append((threading.current_thread(), self._blas_threads()))
            return run_curves(spec, run)

        monkeypatch.setattr(berlab, "_run_curves", recorded)
        with self._caller_blas_threads(caller):
            run_ber_sweep(spec, workers=2)
            assert self._blas_threads() == caller
        assert sorted(count for _, count in seen) == [1, 1]
        assert {thread for thread, _ in seen} == set(started)
        assert len(started) == 2

    @pytest.mark.parametrize("workers", [0, -3, 2.5])
    def test_bad_worker_count_rejected(self, workers):
        message = f"workers must be an integer >= 1, got {workers!r}"
        with pytest.raises(ParameterError, match=re.escape(message)):
            run_ber_sweep(_fast_spec(), workers=workers)

    def test_layout_without_data_rows_rejected(self):
        message = "^data_symbols_per_frame must be an integer >= 1, got 0$"
        with pytest.raises(ParameterError, match=message):
            _fast_spec(config=_small_config(data_symbols_per_frame=0, sync_symbols=1))

    def test_seed_changes_results(self):
        a = run_ber_sweep(_fast_spec(seed=0))
        b = run_ber_sweep(_fast_spec(seed=1))
        assert a != b

    def test_orthogonal_point_matches_qfunction(self):
        spec = _fast_spec(
            alphas=(1.0,), ebn0_dbs=(5.0,), max_bits=200_000, min_errors=200
        )
        p = run_ber_sweep(spec).points[0]
        # The receiver drops the prefix's share of each block's energy, so
        # the bound is Q(sqrt(2 Eb/N0 n / (n + cp_len))).
        config = spec.config
        gamma = 10 ** (5.0 / 10) * config.n / (config.n + config.cp_len)
        theory = 0.5 * erfc(math.sqrt(2 * gamma) / math.sqrt(2))
        assert p.ber == pytest.approx(theory, rel=0.25)

    def test_compression_raises_ber(self):
        spec = _fast_spec(alphas=(1.0, 0.7), ebn0_dbs=(8.0,), min_errors=100)
        result = run_ber_sweep(spec)
        ortho = result.curve(TransformKind.FRCT, 1.0, 10)[0]
        tight = result.curve(TransformKind.FRCT, 0.7, 10)[0]
        assert tight.ber > ortho.ber

    def test_curve_cache_holds_one_curve(self):
        run_ber_sweep(_fast_spec(alphas=(0.9, 0.8, 0.7)))
        assert _curve.cache_info().currsize == 1

    def test_repeated_sweep_builds_its_curve_once(self, monkeypatch):
        # The plan, C and E_s of a curve are built once in its first sweep,
        # E_s once for all its Eb/N0 values, and not again when it is swept
        # again.
        built = collections.Counter()

        def counted(module, name):
            fn = getattr(module, name)

            def call(*args, **kwargs):
                built[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, call)

        counted(berlab, "make_plan")
        counted(icimodel, "correlation_matrix")
        counted(channel, "expected_sample_energy")
        _curve.cache_clear()
        spec = _fast_spec(ebn0_dbs=(4.0, 6.0), iteration_counts=(0, 10))
        first = run_ber_sweep(spec)
        assert built == {"make_plan": 1, "correlation_matrix": 1, "expected_sample_energy": 1}
        assert run_ber_sweep(spec) == first
        assert built == {"make_plan": 1, "correlation_matrix": 1, "expected_sample_energy": 1}

    def test_a_curve_builds_the_float64_kernel_once(self, monkeypatch):
        # Its N rows, rounded into the float32 plan, and for the sample
        # energy of every Eb/N0's sigma only the cp_len rows a prefix
        # repeats, once, beside C; none when the curve is swept again.
        blocks = _kernel_row_blocks(monkeypatch)
        _curve.cache_clear()
        spec = _fast_spec(ebn0_dbs=(4.0, 6.0, 8.0), iteration_counts=(0, 10))
        first = run_ber_sweep(spec)
        assert sum(rows for rows, _ in blocks) == spec.config.n + spec.config.cp_len
        blocks.clear()
        assert run_ber_sweep(spec) == first
        assert blocks == []

    def test_curves_grouping(self):
        spec = _fast_spec(alphas=(1.0, 0.9), ebn0_dbs=(4.0, 6.0))
        result = run_ber_sweep(spec)
        curves = result.curves()
        assert set(curves) == {
            (TransformKind.FRCT, 1.0, 10),
            (TransformKind.FRCT, 0.9, 10),
        }
        for curve in curves.values():
            assert [p.ebn0_db for p in curve] == [4.0, 6.0]


class TestCurveStreams:
    """The points of a curve share its bits and noise, batch by batch."""

    def test_equal_ebn0_points_detect_identical_rows(self, monkeypatch):
        detector = equalize.id_equalize_frame
        seen = []

        def recorded(config, rows, iterations, **buffers):
            seen.append((iterations, rows.tobytes()))
            return detector(config, rows, iterations, **buffers)

        monkeypatch.setattr(equalize, "id_equalize_frame", recorded)
        spec = _fast_spec(ebn0_dbs=(4.0, 7.0), iteration_counts=(0, 5, 10), min_errors=0,
                          frames_per_batch=8)
        run_ber_sweep(spec)
        batches = -(-spec.max_bits // (8 * spec.config.data_bits_per_frame))
        assert len(seen) == 6 * batches
        for b in range(batches):
            calls = seen[6 * b:6 * (b + 1)]
            assert [iterations for iterations, _ in calls] == [0, 5, 10] * 2
            at_4db, at_7db = {r for _, r in calls[:3]}, {r for _, r in calls[3:]}
            assert len(at_4db) == len(at_7db) == 1 and at_4db != at_7db

    def test_every_point_stops_as_a_lone_point(self):
        # Each point of a curve whose points stop at different batches, the
        # first listed (6 dB), the earliest (0 dB) and the latest (12 dB),
        # gets the result of a one-point sweep at its Eb/N0.
        spec = _fast_spec(ebn0_dbs=(6.0, 0.0, 12.0), iteration_counts=(0, 10), min_errors=100)
        curve = run_ber_sweep(spec)
        for iterations in (0, 10):
            points = curve.curve(TransformKind.FRCT, 0.9, iterations)
            assert len({p.bits for p in points}) == 3
            for point in points:
                alone = run_ber_sweep(_fast_spec(ebn0_dbs=(point.ebn0_db,),
                                                 iteration_counts=(iterations,), min_errors=100))
                assert alone.points == (point,)

    def test_a_points_rows_do_not_depend_on_its_grid(self, monkeypatch):
        # The float32 rows detected at 12 dB are the bytes of a lone 12 dB
        # point's, also when the curve lists other Eb/N0 first.
        detector = equalize.id_equalize_frame
        seen = []

        def recorded(config, rows, iterations, **buffers):
            seen.append(rows.tobytes())
            return detector(config, rows, iterations, **buffers)

        monkeypatch.setattr(equalize, "id_equalize_frame", recorded)
        run_ber_sweep(_fast_spec(ebn0_dbs=(12.0,), iteration_counts=(0,), min_errors=0, seed=5))
        alone, seen[:] = seen[:], []
        run_ber_sweep(_fast_spec(ebn0_dbs=(6.0, 0.0, 12.0), iteration_counts=(0,), min_errors=0,
                                 seed=5))
        assert len(alone) == 49 and len(seen) == 3 * 49  # 2048 bits a batch
        assert seen[2::3] == alone

    @pytest.mark.parametrize("spec,expected", [
        (SweepSpec(config=experiment_baseline(), alphas=(0.8,), ebn0_dbs=(10.0,),
                   max_bits=200_000, min_errors=0, seed=3), (262144, 400)),
        (_fast_spec(), (12288, 51)),
        (SweepSpec(config=experiment_baseline(), alphas=(1.0,), ebn0_dbs=(6.0,),
                   iteration_counts=(0,), max_bits=200_000, min_errors=0, seed=3), (262144, 1144)),
    ])
    def test_one_point_sweeps_keep_their_counts(self, spec, expected):
        # (bits, errors) of three one-point sweeps, pinned: a one-point curve
        # runs the chain of a lone point, so only a change to the chain or
        # its streams moves them.  The first two last moved when the batch
        # came to be formed in float32, from float32 noise draws; the
        # orthonormal one (alpha = 1, I = 0) when its noise came to be taken
        # as drawn, W instead of W K.
        [point] = run_ber_sweep(spec).points
        assert (point.bits, point.errors) == expected


class TestTraceContract:
    """What a span trace of a sweep reads from its call counts (perfbench's
    `--trace 1` takes the `channel.apply_awgn` calls as its batch count):
    one noise call per curve batch, one detector call per live point and
    batch, and no time-domain chain.  The noise is demultiplexed once per
    curve batch below alpha = 1 and not at all at alpha = 1."""

    def test_calls_per_batch(self, monkeypatch):
        calls = collections.Counter()
        for module in (berlab, channel, equalize, icimodel, modem, transforms):
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or \
                        not fn.__module__.startswith("ftnlab."):
                    continue

                def counted(*args, _fn=fn, **kwargs):
                    calls[f"{_fn.__module__[len('ftnlab.'):]}.{_fn.__name__}"] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, attr, counted)
        spec = _fast_spec(alphas=(1.0, 0.8), ebn0_dbs=(4.0, 6.0, 8.0),
                          iteration_counts=(0, 10), min_errors=60)
        points = run_ber_sweep(spec).points
        bits_per_batch = spec.frames_per_batch * spec.config.data_bits_per_frame
        curve_batches = {}
        for p in points:
            key = (p.kind, p.alpha)
            curve_batches[key] = max(curve_batches.get(key, 0), p.bits // bits_per_batch)
        point_batches = [p.bits // bits_per_batch for p in points]
        assert len(set(point_batches)) > 1  # the points stop at different batches
        assert calls["channel.apply_awgn"] == sum(curve_batches.values())
        assert calls["transforms.demultiplex"] == curve_batches[(TransformKind.FRCT, 0.8)]
        assert calls["equalize.id_equalize_frame"] == sum(point_batches)
        assert calls["modem.receive"] == calls["modem.transmit"] == 0


class TestSweepMemory:
    """A sweep keeps two N x N matrices, both float32, the kernel and the
    detector's C - I: 1.0 x 8 N^2 bytes, and its workspace.  The float64 C
    it builds C - I from is its peak's largest part, and it never builds a
    float64 kernel."""

    N = 1024

    def test_one_point_sweep_peak_and_held_memory(self):
        spec = SweepSpec(
            config=experiment_baseline(n=self.N), alphas=(0.8,), ebn0_dbs=(6.0,),
            iteration_counts=(2,), frames_per_batch=1, max_bits=100_000, min_errors=0,
        )
        _curve.cache_clear()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run_ber_sweep(spec)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix_bytes = 8 * self.N**2
        assert (peak - base) < 2.5 * matrix_bytes
        assert (held - base) < 1.5 * matrix_bytes

    def test_ici_bound_allocates_no_matrix(self):
        # Two reductions over C - I, no N x N temporary such as |C - I|.
        off = np.zeros((self.N, self.N), np.float32)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert _ici_product(off) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 4 * self.N  # under one float32 row

    def test_sweep_builds_no_float64_kernel(self, monkeypatch):
        # Its plan is float32, and the float64 kernel is built a block of
        # rows at a time: 32 rows at N = 1024.
        dtypes = []
        post_init = transforms.TransformPlan.__post_init__

        def plan_built(plan):
            dtypes.append(plan.dtype)
            post_init(plan)

        monkeypatch.setattr(transforms.TransformPlan, "__post_init__", plan_built)
        blocks = _kernel_row_blocks(monkeypatch)
        _curve.cache_clear()
        run_ber_sweep(SweepSpec(
            config=experiment_baseline(n=self.N), alphas=(0.8,), ebn0_dbs=(6.0, 9.0),
            iteration_counts=(0, 2), frames_per_batch=1, max_bits=100_000, min_errors=0,
        ))
        assert dtypes and set(dtypes) == {np.dtype(np.float32)}
        assert blocks and max(blocks) == (32, self.N)

    def test_sweep_keeps_no_correlation_matrix(self, monkeypatch):
        built = []
        build = icimodel.correlation_matrix

        def tracked(*args):
            c = build(*args)
            built.append(weakref.ref(c))
            return c

        monkeypatch.setattr(icimodel, "correlation_matrix", tracked)
        _curve.cache_clear()
        run_ber_sweep(_fast_spec(alphas=(0.9, 0.8), iteration_counts=(0, 10)), workers=1)
        assert built and all(ref() is None for ref in built)
        # One build per curve, (kind, alpha), whatever its iteration counts.
        assert len(built) == 2


def _wilson_z(errors, bits, z):
    """Wilson score interval at `z` standard deviations."""
    phat, z2 = errors / bits, z * z
    center = (phat + z2 / (2 * bits)) / (1 + z2 / bits)
    half = z / (1 + z2 / bits) * math.sqrt(phat * (1 - phat) / bits + z2 / (4 * bits * bits))
    return center - half, center + half


class TestNoiseIntegratedReference:
    """At I = 0 a data row is r = C s + K^T w with white w, so entry k of a
    2-PAM row errs with probability Q(s_k (C s)_k / (sigma sqrt(C_kk))).
    Averaged over random frames, with sigma from the layout's expected sample
    energy, this is a BER below alpha = 1 that uses no noise draw and no
    detector."""

    @pytest.mark.parametrize(
        "kind,alpha", [(TransformKind.FRCT, 0.8), (TransformKind.FRHT, 0.45)]
    )
    def test_sweep_matches_noise_integrated_ber(self, kind, alpha):
        ebn0_db, frames, draws = 4.0, 4, 16
        config = experiment_baseline(alpha=alpha, kind=kind)
        c = correlation_matrix(kind, config.n, alpha).entries
        sigma = _sigma(config, ebn0_db)
        rng = np.random.default_rng(2024)
        probs = []
        for _ in range(draws):
            bits = modem.random_data_bits(config, rng, frames)
            s = modem.pam_map(bits).reshape(-1, config.n)
            margin = s * (s @ c) / (sigma * np.sqrt(np.diag(c)))
            probs.append(np.mean(0.5 * erfc(margin / math.sqrt(2.0))))
        expected = float(np.mean(probs))
        spec = SweepSpec(
            config=config, alphas=(alpha,), ebn0_dbs=(ebn0_db,), iteration_counts=(0,),
            kinds=(kind,), max_bits=1_000_000, min_errors=0, frames_per_batch=frames, seed=5,
        )
        point = run_ber_sweep(spec).points[0]
        lo, hi = _wilson_z(point.errors, point.bits, 5.0)
        assert lo < expected < hi


class TestNoiseFreeFloor:
    def test_frct_alpha09_has_no_floor_at_20_iterations(self):
        # Without noise a data row is exactly C s, so every error is the
        # detector's own; FrCT alpha 0.9 at I = 20 makes none in 2 M bits.
        frames, draws = 4, 16
        config = experiment_baseline(alpha=0.9)
        id_cfg = equalize.IdConfig(correlation_matrix(config.kind, config.n, config.alpha))
        rng = np.random.default_rng(9)
        bits = errors = 0
        for _ in range(draws):
            sent = modem.random_data_bits(config, rng, frames)
            received = receive(config, modem.transmit(config, sent))
            index = equalize.id_equalize_frame(id_cfg, received.reshape(-1, config.n), 20)
            bits += sent.size
            errors += int(np.count_nonzero(index.ravel() != sent.ravel()))
        assert bits == 2_097_152
        assert errors == 0


class TestRequiredEbn0:
    def _result(self, bers, ebn0s=None):
        ebn0s = ebn0s or list(range(len(bers)))
        points = tuple(
            BerPoint(
                kind=TransformKind.FRCT, alpha=0.9, ebn0_db=float(e), iterations=10,
                bits=1_000_000, errors=int(b * 1_000_000), ber=b,
                ci_lo=b, ci_hi=b,
            )
            for e, b in zip(ebn0s, bers)
        )
        return BerSweepResult(points=points)

    def test_interpolates_in_log_domain(self):
        result = self._result([1e-2, 1e-4], ebn0s=[4.0, 6.0])
        out = required_ebn0_at_ber(result, 1e-3)
        req = out[(TransformKind.FRCT, 0.9, 10)]
        assert req.status == "ok"
        assert req.ebn0_db == pytest.approx(5.0, abs=1e-9)

    def test_floor_detected(self):
        result = self._result([5e-2, 2e-2, 1.5e-2])
        req = required_ebn0_at_ber(result, 1e-3)[(TransformKind.FRCT, 0.9, 10)]
        assert req.status == "floor"
        assert math.isnan(req.ebn0_db)

    def test_all_below(self):
        result = self._result([1e-5, 1e-6])
        req = required_ebn0_at_ber(result, 1e-3)[(TransformKind.FRCT, 0.9, 10)]
        assert req.status == "all_below"

    @pytest.mark.parametrize("bers,ebn0s,expected", [
        ([1e-2, 1e-3], [4.0, 6.0], 6.0),
        ([1e-2, 1e-3, 1e-5], [4.0, 6.0, 8.0], 6.0),
        ([1e-3, 1e-3], [4.0, 6.0], 4.0),
        ([1e-3], [4.0], 4.0),
    ])
    def test_curve_reaching_the_target_exactly_is_ok(self, bers, ebn0s, expected):
        req = required_ebn0_at_ber(self._result(bers, ebn0s), 1e-3)
        assert req[(TransformKind.FRCT, 0.9, 10)] == RequiredEbn0(status="ok", ebn0_db=expected)

    def test_zero_error_point_handled(self):
        result = self._result([1e-2, 0.0], ebn0s=[4.0, 8.0])
        req = required_ebn0_at_ber(result, 1e-3)[(TransformKind.FRCT, 0.9, 10)]
        assert req.status == "ok"
        assert 4.0 < req.ebn0_db < 8.0

    @pytest.mark.parametrize("left_errors", [5, 2])
    def test_zero_error_point_with_a_floor_above_the_target(self, left_errors):
        # 0 errors in 1e5 bits floors at 5e-6, at or above the left point's
        # BER: the log span is 0 or reversed, so the right point places it.
        points = tuple(
            BerPoint(kind=TransformKind.FRCT, alpha=0.9, ebn0_db=e, iterations=10,
                     bits=bits, errors=errors, ber=errors / bits, ci_lo=0.0, ci_hi=1.0)
            for e, bits, errors in ((4.0, 1_000_000, left_errors), (6.0, 100_000, 0))
        )
        req = required_ebn0_at_ber(BerSweepResult(points=points), 1e-6)
        assert req[(TransformKind.FRCT, 0.9, 10)] == RequiredEbn0(status="ok", ebn0_db=6.0)

    def test_target_range_checked(self):
        result = self._result([1e-2, 1e-4])
        with pytest.raises(ParameterError):
            required_ebn0_at_ber(result, 0.0)


class TestPsd:
    def test_edge_tracks_compression(self):
        edges = {}
        for alpha in (1.0, 0.8):
            cfg = experiment_baseline(alpha=alpha, cp_len=0,
                                 data_symbols_per_frame=32,
                                 training_symbols=0, sync_symbols=0)
            est = estimate_psd(cfg, frames=8, seed=0)
            edges[alpha] = psd_edge(est)
        assert edges[1.0] == pytest.approx(5.0e9, abs=0.2e9)
        assert edges[0.8] == pytest.approx(4.0e9, abs=0.2e9)
        assert edges[0.8] / edges[1.0] == pytest.approx(0.8, abs=0.05)

    def test_peak_normalized(self):
        cfg = _small_config(cp_len=0)
        est = estimate_psd(cfg, frames=4, seed=1)
        assert np.max(est.density_db) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic(self):
        cfg = _small_config(cp_len=0)
        a = estimate_psd(cfg, frames=4, seed=2)
        b = estimate_psd(cfg, frames=4, seed=2)
        assert np.array_equal(a.density_db, b.density_db)

    def test_is_welch_at_scipy_defaults(self):
        # Hann windows of 1024 samples overlapping by half, peak-normalized.
        from scipy import signal

        cfg = _small_config(cp_len=0)
        est = estimate_psd(cfg, frames=4, seed=3)
        bits = modem.random_data_bits(cfg, np.random.default_rng(3), 4)
        freq, power = signal.welch(modem.transmit(cfg, bits).ravel(), fs=modem.SAMPLE_RATE,
                                   nperseg=1024)
        assert np.array_equal(est.frequency_hz, freq)
        assert np.array_equal(est.density_db, 10.0 * np.log10(power / np.max(power)))

    @pytest.mark.parametrize(
        "kwargs,field",
        [({"frames": 0}, "frames"), ({"frames": 2.5}, "frames"), ({"frames": True}, "frames"),
         ({"seed": -1}, "seed"), ({"seed": 1.5}, "seed")],
    )
    def test_arguments_validated(self, kwargs, field):
        cfg = _small_config(cp_len=0)
        with pytest.raises(ParameterError, match=field):
            estimate_psd(cfg, **{"frames": 4, "seed": 0, **kwargs})

    def test_segment_longer_than_waveform(self):
        cfg = _small_config(n=16, cp_len=0)  # 256 samples a frame
        with pytest.raises(ParameterError,
                           match="^frames=3 give 768 samples, fewer than the 1024-sample "
                                 "Welch segment$"):
            estimate_psd(cfg, frames=3, seed=0)

    @pytest.mark.parametrize("n,frames", [(16, 4), (64, 1)])
    def test_waveform_of_exactly_one_segment_accepted(self, n, frames):
        cfg = _small_config(n=n, cp_len=0)  # 16 n samples a frame
        est = estimate_psd(cfg, frames=frames, seed=0)
        assert est.frequency_hz.shape == est.density_db.shape == (berlab.PSD_SEGMENT // 2 + 1,)

    def test_edge_unreachable(self):
        est = PsdEstimate(frequency_hz=np.array([0.0, 1.0]), density_db=np.array([-20.0, -11.0]))
        with pytest.raises(ParameterError, match="no bins reach -10.0 dB"):
            psd_edge(est)


class TestExport:
    @pytest.fixture()
    def result(self):
        return run_ber_sweep(_fast_spec())

    @staticmethod
    def _assert_written_exactly(path, format, result):
        # Every value is written as text that parses back to it exactly: a float
        # as its shortest round-trip text, a count as an integer, a kind by name.
        assert not path.read_bytes().startswith(b"\xef\xbb\xbf")  # no byte-order mark
        with open(path, newline="", encoding="utf-8") as fh:
            if format == "csv":
                recs = list(csv.DictReader(fh))
            else:  # each number as its literal text
                recs = json.load(fh, parse_float=str, parse_int=str)["points"]
        names = [f.name for f in fields(BerPoint)]
        assert len(recs) == len(result.points)
        for rec, point in zip(recs, result.points):
            assert list(rec) == names
            assert {f.name: f.type(rec[f.name]) for f in fields(BerPoint)} == asdict(point)

    @staticmethod
    def _schema():
        from importlib import resources

        return json.loads(
            resources.files("ftnlab.schemas").joinpath("ber_sweep.schema.json").read_text()
        )

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_sweep_written_exactly(self, tmp_path, result, format):
        path = tmp_path / f"sweep.{format}"
        export_results(result, path, format=format)
        self._assert_written_exactly(path, format, result)

    def test_json_matches_schema(self, tmp_path, result):
        jsonschema = pytest.importorskip("jsonschema")
        path = tmp_path / "sweep.json"
        export_results(result, path, format="json")
        jsonschema.validate(json.loads(path.read_text()), self._schema())

    _RECORD = dict(kind="FrCT", alpha=0.8, ebn0_db=4.0, iterations=20, bits=1000,
                   errors=10, ber=0.01, ci_lo=0.005, ci_hi=0.02)

    @pytest.mark.parametrize("format", ["csv", "json"])
    @pytest.mark.parametrize("edge", [
        dict(alpha=1.0), dict(ebn0_db=-30.0), dict(iterations=0),
        dict(errors=0, ber=0.0, ci_lo=0.0),
        dict(errors=1000, ber=1.0, ci_hi=1.0),
        dict(bits=1, errors=1, ber=1.0, ci_lo=0.0, ci_hi=1.0),
    ], ids=lambda edge: "-".join(edge))
    def test_values_on_the_range_edges_accepted(self, tmp_path, format, edge):
        # A point on an edge of the schema's ranges is written exactly, and the
        # schema accepts the JSON file that holds it.
        jsonschema = pytest.importorskip("jsonschema")
        points = tuple(BerPoint(**{**self._RECORD, "kind": kind, **edge})
                       for kind in (TransformKind.FRCT, TransformKind.FRHT))
        result = BerSweepResult(points=points)
        path = tmp_path / f"sweep.{format}"
        export_results(result, path, format=format)
        self._assert_written_exactly(path, format, result)
        if format == "json":
            jsonschema.validate(json.loads(path.read_text()), self._schema())

    @pytest.mark.parametrize("field,value", [
        ("alpha", "abc"), ("bits", 2.5), ("kind", "FrXT"), ("kind", "frct"),
        # Out of the schema's ranges.
        ("alpha", 7.5), ("alpha", 0), ("iterations", -3), ("bits", 0), ("errors", -1),
        ("ber", -2), ("ber", 1.5), ("ci_lo", -0.1), ("ci_hi", 2),
    ])
    def test_schema_refuses_bad_value(self, field, value):
        jsonschema = pytest.importorskip("jsonschema")
        payload = {"points": [self._RECORD, {**self._RECORD, field: value}]}
        with pytest.raises(jsonschema.ValidationError) as info:
            jsonschema.validate(payload, self._schema())
        assert list(info.value.absolute_path) == ["points", 1, field]

    @pytest.mark.parametrize("field", [f.name for f in fields(BerPoint)])
    def test_schema_requires_every_point_field(self, field):
        jsonschema = pytest.importorskip("jsonschema")
        rec = {k: v for k, v in self._RECORD.items() if k != field}
        with pytest.raises(jsonschema.ValidationError,
                           match=re.escape(f"'{field}' is a required property")) as info:
            jsonschema.validate({"points": [self._RECORD, rec]}, self._schema())
        assert list(info.value.absolute_path) == ["points", 1]

    @pytest.mark.parametrize("field", ["pam_order", "note"])
    def test_schema_refuses_unknown_point_field(self, field):
        # The schema allows no other point field, such as the PAM order an
        # older sweep may have recorded.
        jsonschema = pytest.importorskip("jsonschema")
        with pytest.raises(jsonschema.ValidationError, match=f"'{field}' was unexpected") as info:
            jsonschema.validate({"points": [{**self._RECORD, field: 2}]}, self._schema())
        assert list(info.value.absolute_path) == ["points", 0]

    def test_schema_refuses_unknown_top_level_field(self):
        jsonschema = pytest.importorskip("jsonschema")
        with pytest.raises(jsonschema.ValidationError, match="'pam_order' was unexpected"):
            jsonschema.validate({"points": [self._RECORD], "pam_order": 2}, self._schema())

    @pytest.mark.parametrize("payload", [{}, {"point": []}, {"points": {}}, []])
    def test_schema_refuses_a_file_without_points(self, payload):
        jsonschema = pytest.importorskip("jsonschema")
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, self._schema())

    def test_bad_format_rejected(self, tmp_path, result):
        with pytest.raises(ParameterError):
            export_results(result, tmp_path / "x", format="xml")

    def test_unsupported_result_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="^result of type dict cannot be exported$"):
            export_results({}, tmp_path / "x.csv")

    def test_psd_export(self, tmp_path):
        cfg = _small_config(cp_len=0)
        est = estimate_psd(cfg, frames=4, seed=0)
        csv_path = tmp_path / "psd.csv"
        export_results(est, csv_path, format="csv")
        assert csv_path.read_text().splitlines()[0] == "frequency_hz,density_db"
        json_path = tmp_path / "psd.json"
        export_results(est, json_path, format="json")
        payload = json.loads(json_path.read_text())
        assert list(payload) == ["frequency_hz", "density_db"]
        assert len(payload["frequency_hz"]) == len(est.frequency_hz)

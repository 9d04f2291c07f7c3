"""PAM mapping, framing, cyclic prefix, rate accounting, stream I/O."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ftnlab.exceptions import FramingError, ParameterError, ShapeError
from ftnlab.modem import (
    ModemConfig,
    SampleStream,
    make_frame,
    pam_demap,
    pam_map,
    experiment_baseline,
    pilot_rows,
    random_data_bits,
    rate_report,
    receive,
    transmit,
)
from ftnlab import records
from ftnlab.icimodel import correlation_matrix


class TestPamMapping:
    def test_binary_antipodal(self):
        assert_allclose(pam_map([0, 1], 2), [-1.0, 1.0])

    def test_quaternary_unit_energy_and_distinct(self):
        bits = [0, 0, 0, 1, 1, 1, 1, 0]
        levels = pam_map(bits, 4)
        assert len(set(np.round(levels, 12))) == 4
        assert np.mean(levels**2) == pytest.approx(1.0, abs=1e-12)

    def test_gray_adjacency(self):
        # Adjacent 4-PAM levels differ in exactly one bit.
        order = np.argsort(pam_map([0, 0, 0, 1, 1, 1, 1, 0], 4))
        labels = [(0, 0), (0, 1), (1, 1), (1, 0)]
        for a, b in zip(order, order[1:]):
            diff = sum(x != y for x, y in zip(labels[a], labels[b]))
            assert diff == 1

    def test_indivisible_bit_count(self):
        with pytest.raises(FramingError):
            pam_map([0, 1, 1], 4)

    def test_demap_sign_decision(self):
        assert list(pam_demap([-0.2, 0.9], 2)) == [0, 1]

    def test_demap_tie_breaks_low(self):
        assert list(pam_demap([0.0], 2)) == [0]

    @pytest.mark.parametrize("m", [2, 4])
    def test_round_trip(self, m):
        rng = np.random.default_rng(0)
        k = int(np.log2(m))
        bits = rng.integers(0, 2, size=10_000 * k)
        assert np.array_equal(pam_demap(pam_map(bits, m), m), bits)

    @pytest.mark.parametrize("m", [0, 1, 3, 6, 4.0])
    def test_bad_order(self, m):
        with pytest.raises(ParameterError):
            pam_map([0, 1], m)


class TestConfig:
    def test_experiment_baseline_layout(self):
        cfg = experiment_baseline()
        assert (cfg.n, cfg.cp_len) == (256, 16)
        assert (cfg.data_symbols_per_frame, cfg.training_symbols, cfg.sync_symbols) == (128, 10, 1)
        assert cfg.sample_rate == 10e9

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"n": 1}, "n"),
            ({"alpha": 0.0}, "alpha"),
            ({"alpha": 1.2}, "alpha"),
            ({"pam_order": 3}, "pam_order"),
            ({"cp_len": -1}, "cp_len"),
            ({"sample_rate": 0.0}, "sample_rate"),
            ({"training_symbols": -2}, "training_symbols"),
            ({"n": 16.5}, "n"),
        ],
    )
    def test_invalid_fields_named(self, kwargs, field):
        with pytest.raises(ParameterError, match=field):
            ModemConfig(**kwargs)


class TestTransmitReceive:
    def _frame(self, cfg, seed=0):
        rng = np.random.default_rng(seed)
        return make_frame(cfg, random_data_bits(cfg, rng))

    def test_single_symbol_no_cp_equals_multiplex(self):
        from ftnlab.transforms import make_plan, multiplex

        cfg = ModemConfig(
            n=16, alpha=0.8, cp_len=0,
            data_symbols_per_frame=1, training_symbols=0, sync_symbols=0,
        )
        frame = self._frame(cfg)
        stream = transmit(cfg, frame)
        plan = make_plan(cfg.kind, cfg.n, cfg.alpha)
        assert_allclose(stream.samples, multiplex(plan, frame.data[0]), atol=0)

    def test_cyclic_prefix_layout(self):
        cfg = experiment_baseline(alpha=0.8)
        stream = transmit(cfg, self._frame(cfg))
        blocks = stream.samples.reshape(-1, 272)
        assert blocks.shape[0] == 139
        assert np.array_equal(blocks[:, :16], blocks[:, 256:])

    def test_orthogonal_loopback(self):
        cfg = ModemConfig(n=32, alpha=1.0, cp_len=4, data_symbols_per_frame=8)
        frame = self._frame(cfg)
        out = receive(cfg, transmit(cfg, frame))
        assert_allclose(out.data, frame.data, atol=1e-10)
        assert_allclose(out.sync, frame.sync, atol=1e-10)
        assert_allclose(out.training, frame.training, atol=1e-10)

    def test_compressed_loopback_applies_correlation(self):
        cfg = ModemConfig(n=32, alpha=0.8, cp_len=4, data_symbols_per_frame=8)
        frame = self._frame(cfg)
        out = receive(cfg, transmit(cfg, frame))
        c = correlation_matrix(cfg.kind, cfg.n, cfg.alpha).entries
        assert_allclose(out.data, frame.data @ c.T, atol=1e-10)

    def test_truncated_stream_rejected(self):
        cfg = ModemConfig(n=32, alpha=1.0, cp_len=4, data_symbols_per_frame=8)
        stream = transmit(cfg, self._frame(cfg))
        with pytest.raises(FramingError):
            SampleStream(samples=stream.samples[:-5], cp_len=4, n=32)
        short = SampleStream(samples=stream.samples[:36], cp_len=4, n=32)
        with pytest.raises(FramingError):
            receive(cfg, short)

    def test_wrong_row_length_rejected(self):
        cfg = ModemConfig(n=32, data_symbols_per_frame=2)
        frame = self._frame(ModemConfig(n=16, data_symbols_per_frame=2))
        with pytest.raises((ShapeError, FramingError)):
            transmit(cfg, frame)

    def test_pilots_are_fixed_and_on_outer_levels(self):
        cfg = experiment_baseline()
        sync_a, train_a = pilot_rows(cfg)
        sync_b, train_b = pilot_rows(cfg)
        assert np.array_equal(sync_a, sync_b)
        assert np.array_equal(train_a, train_b)
        assert set(np.unique(sync_a)) == {-1.0, 1.0}


class TestRateReport:
    def test_experiment_baseline_alpha_08(self):
        report = rate_report(experiment_baseline(alpha=0.8))
        assert report.symbol_rate == 10e9
        assert report.nyquist_rate == pytest.approx(8e9)
        assert report.baseband_bandwidth == pytest.approx(4e9)
        # Exact form (N-1)*alpha/(2T) + 1/T with T = 25.6 ns.
        assert report.baseband_bandwidth_exact == pytest.approx(
            255 * 0.8 / (2 * 25.6e-9) + 1 / 25.6e-9
        )

    def test_net_bit_rate_closed_form(self):
        report = rate_report(experiment_baseline())
        expected = 1.0 * 10e9 * (256 / 272) * (128 / 139)
        assert report.net_bit_rate == pytest.approx(expected, rel=1e-12)

    def test_ftn_rate_ratio(self):
        report = rate_report(experiment_baseline(alpha=0.8))
        assert report.symbol_rate / report.nyquist_rate == pytest.approx(1.25, abs=0)

    def test_no_gain_at_alpha_one(self):
        report = rate_report(experiment_baseline(alpha=1.0))
        assert report.nyquist_rate == report.symbol_rate


class TestStreamIO:
    def _stream(self):
        cfg = ModemConfig(n=16, alpha=0.8, cp_len=2, data_symbols_per_frame=3,
                          training_symbols=0, sync_symbols=0)
        rng = np.random.default_rng(7)
        return cfg, transmit(cfg, make_frame(cfg, random_data_bits(cfg, rng)))

    def test_binary_round_trip(self, tmp_path):
        cfg, stream = self._stream()
        path = tmp_path / "wave.f64"
        records.write_f8(path, stream.samples)
        back = SampleStream(records.read_f8(path), cp_len=cfg.cp_len, n=cfg.n)
        assert np.array_equal(back.samples, stream.samples)

    def test_binary_is_little_endian_f64(self, tmp_path):
        _, stream = self._stream()
        path = tmp_path / "wave.f64"
        records.write_f8(path, stream.samples)
        raw = np.frombuffer(path.read_bytes(), dtype="<f8")
        assert np.array_equal(raw, stream.samples)

    def test_csv_round_trip(self, tmp_path):
        cfg, stream = self._stream()
        path = tmp_path / "wave.csv"
        records.write_csv(path, stream.samples[:, None])
        samples = np.array([float(v) for (v,) in records.read_csv(path)])
        back = SampleStream(samples, cp_len=cfg.cp_len, n=cfg.n)
        assert np.array_equal(back.samples, stream.samples)

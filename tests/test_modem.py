"""PAM mapping, framing, cyclic prefix, rate accounting, stream I/O."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ftnlab.equalize import IdConfig, id_equalize_frame
from ftnlab.exceptions import FramingError, ParameterError
from ftnlab.modem import (
    ModemConfig,
    gray_demap,
    pam_index,
    pam_levels,
    pam_map,
    experiment_baseline,
    pilot_rows,
    random_data_bits,
    rate_report,
    receive,
    transmit,
)
from ftnlab import records
from ftnlab.icimodel import CorrelationMatrix, correlation_matrix
from ftnlab.transforms import TransformKind, demultiplex, make_plan, multiplex


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
        assert list(gray_demap(pam_index([-0.2, 0.9], 2), 2)) == [0, 1]

    def test_demap_tie_breaks_low(self):
        assert list(gray_demap(pam_index([0.0], 2), 2)) == [0]

    @pytest.mark.parametrize("m", [2, 4])
    def test_round_trip(self, m):
        rng = np.random.default_rng(0)
        k = int(np.log2(m))
        bits = rng.integers(0, 2, size=10_000 * k)
        assert np.array_equal(gray_demap(pam_index(pam_map(bits, m), m), m), bits)

    @pytest.mark.parametrize("m", [0, 1, 3, 6, 4.0])
    def test_bad_order(self, m):
        with pytest.raises(ParameterError):
            pam_map([0, 1], m)

    @pytest.mark.parametrize(
        "bits", [[2, 0], [-1, 1], [0.5, 1.0], [0.0, np.nan], [1.0, np.inf], ["0", "1"]]
    )
    def test_non_binary_bits_rejected(self, bits):
        with pytest.raises(ParameterError, match="bits must be 0 or 1"):
            pam_map(bits, 2)

    def test_bool_and_float_bits_accepted(self):
        assert list(pam_map(np.array([True, False]), 2)) == [1.0, -1.0]
        assert list(pam_map([1.0, 0.0, 0.0, 1.0], 4)) == list(pam_map([1, 0, 0, 1], 4))

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_table_equals_level_formula(self, m):
        # Every label against the Gray-decode-then-formula route, bit for bit.
        k = int(np.log2(m))
        labels = np.arange(m)
        bits = (labels[:, None] >> np.arange(k - 1, -1, -1)) & 1
        index = labels.copy()
        shift = 1
        while shift < k:
            index ^= index >> shift
            shift <<= 1
        expected = (2.0 * index - (m - 1)) * np.sqrt(3.0 / (m * m - 1.0))
        mapped = pam_map(bits.ravel(), m)
        assert np.array_equal(mapped.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_gray_demap_inverts_pam_map(self, m):
        index = np.random.default_rng(m).integers(0, m, size=(8, 50))
        assert np.array_equal(pam_map(gray_demap(index, m), m), pam_levels(m)[index.ravel()])

    def test_demap_infinities_on_outer_levels(self):
        assert list(gray_demap(pam_index([-np.inf, np.inf], 2), 2)) == [0, 1]
        assert list(pam_index([-np.inf, np.inf], 8)) == [0, 7]

    def test_equalizer_and_demap_decide_alike(self):
        # The equalizer's final levels and pam_index use one nearest-level
        # rule: at the exact midpoint, beyond the outer levels and at +-inf.
        m = 2
        levels = pam_levels(m)
        values = np.concatenate([
            [-np.inf, levels[0] - 1.0, levels[-1] + 1.0, np.inf],
            0.5 * (levels[:-1] + levels[1:]),
        ])
        n = values.size
        matrix = CorrelationMatrix(kind=None, n=n, alpha=1.0, entries=np.eye(n))
        decided = levels[id_equalize_frame(IdConfig(0, matrix), values[None, :])]
        assert set(decided.ravel()) <= set(levels)
        assert np.array_equal(gray_demap(pam_index(decided, m), m),
                              gray_demap(pam_index(values, m), m))


def _binary_formula(values):
    # The general nearest-level formula at M = 2 (scale 1), step by step.
    t = np.asarray(values, dtype=np.float64) + 1.0
    t /= 2.0
    t -= 0.5
    return np.fmin(np.fmax(np.ceil(t), 0), 1).astype(np.int64)


_TIE = 2.0**-53
_TINY = np.nextafter(0.0, 1.0)


class TestPamIndex:
    @pytest.mark.parametrize("values,literal", [
        ([np.nextafter(_TIE, 0.0), _TIE, np.nextafter(_TIE, 1.0)], [0, 0, 1]),
        ([0.0, -0.0, _TINY, -_TINY], [0, 0, 0, 0]),
        ([np.inf, -np.inf, np.nan, 1.0, -1.0], [1, 0, 0, 1, 0]),
        (np.random.default_rng(53).normal(size=10**6) * 1e-15, None),
        (np.random.default_rng(54).normal(size=10**6), None),
    ], ids=["tie", "zeros", "specials", "scale_1e-15", "scale_1"])
    def test_one_comparison_equals_the_formula(self, values, literal):
        values = np.asarray(values)
        want = _binary_formula(values)
        if literal is not None:
            assert list(want) == literal
        assert_array_equal(pam_index(values, 2), want, strict=True)
        out, scratch = np.full(values.shape, -7, np.int64), np.full(values.shape, 9.0)
        assert pam_index(values, 2, out=out, scratch=scratch) is out
        assert_array_equal(out, want)
        assert_array_equal(gray_demap(pam_index(values, 2), 2), want, strict=True)

    @pytest.mark.parametrize("values", [["a"], [1.0, "a"], [None], [[1.0], [1.0, 2.0]],
                                        np.array([1 + 2j, -1]), [1 + 2j]])
    def test_non_real_values_rejected(self, values):
        with pytest.raises(ParameterError, match="values must be real numbers"):
            pam_index(values, 2)

    def test_integer_and_bool_values_accepted(self):
        assert list(pam_index([3, -2, 0], 4)) == list(pam_index([3.0, -2.0, 0.0], 4))
        assert list(pam_index(np.array([True, False]), 2)) == [1, 0]

    @pytest.mark.parametrize("m", [0, 1, 3, 2.0])
    def test_bad_order_rejected(self, m):
        with pytest.raises(ParameterError, match="m must be a power of two"):
            pam_index([0.5], m)
        with pytest.raises(ParameterError, match="m must be a power of two"):
            gray_demap([0], m)


class TestGrayDemapChecks:
    @pytest.mark.parametrize("index,m,message", [
        ([0.5, 3.0], 2, "index must hold integers, got dtype float64"),
        ([1.5], 4, "index must hold integers, got dtype float64"),
        (np.array([True, False]), 2, "index must hold integers, got dtype bool"),
        ([7, -1], 4, r"index must lie in \[0, 4\), got 7"),
        ([0, 1, -1], 2, r"index must lie in \[0, 2\), got -1"),
        (np.array([3, 200], np.uint8), 4, r"index must lie in \[0, 4\), got 200"),
        (np.array([1, -1], ">i8"), 2, r"index must lie in \[0, 2\), got -1"),
    ])
    def test_bad_index_rejected(self, index, m, message):
        with pytest.raises(ParameterError, match=message):
            gray_demap(index, m)
        with pytest.raises(ParameterError, match=message):
            gray_demap(index, m, out=np.empty(len(index) * (m.bit_length() - 1), np.int64))

    def test_edges_and_empty_accepted(self):
        assert list(gray_demap(np.array([0, 3], np.int32), 4)) == [0, 0, 1, 0]
        assert list(gray_demap(np.array([1, 0], np.uint8), 2)) == [1, 0]
        # Read by value, not by the host's byte order.
        assert list(gray_demap(np.array([1, 0], ">i8"), 2)) == [1, 0]
        assert list(gray_demap(np.array([3, 1], ">i4"), 4)) == [1, 0, 0, 1]
        assert gray_demap(np.empty(0, np.int64), 8).size == 0


class TestConfig:
    def test_experiment_baseline_layout(self):
        cfg = experiment_baseline()
        assert (cfg.n, cfg.cp_len) == (256, 16)
        assert (cfg.alpha, cfg.kind, cfg.pam_order) == (0.8, TransformKind.FRCT, 2)
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
            ({"cp_len": 1.5}, "cp_len"),
            ({"data_symbols_per_frame": 2.5}, "data_symbols_per_frame"),
            ({"training_symbols": 1.5}, "training_symbols"),
            ({"sync_symbols": 0.5}, "sync_symbols"),
            ({"n": 16, "cp_len": 17}, "cp_len"),
            ({"data_symbols_per_frame": 0, "training_symbols": 0, "sync_symbols": 0},
             "sync_symbols"),
        ],
    )
    def test_invalid_fields_named(self, kwargs, field):
        with pytest.raises(ParameterError, match=field):
            ModemConfig(**kwargs)

    def test_kind_checked_at_construction(self):
        with pytest.raises(ParameterError) as info:
            ModemConfig(kind="FrCT")
        assert str(info.value) == "kind must be a TransformKind, got 'FrCT'"


class TestTransmitReceive:
    def _bits(self, cfg, frames=1, seed=0):
        return random_data_bits(cfg, np.random.default_rng(seed), frames)

    def test_single_symbol_no_cp_equals_multiplex(self):
        cfg = ModemConfig(
            n=16, alpha=0.8, cp_len=0,
            data_symbols_per_frame=1, training_symbols=0, sync_symbols=0,
        )
        bits = self._bits(cfg)
        blocks = transmit(cfg, bits)
        assert blocks.shape == (1, 1, 16)
        plan = make_plan(cfg.kind, cfg.n, cfg.alpha)
        assert_allclose(blocks.ravel(), multiplex(plan, pam_map(bits, 2)), atol=0)

    def test_cyclic_prefix_layout(self):
        cfg = experiment_baseline(alpha=0.8)
        blocks = transmit(cfg, self._bits(cfg))
        assert blocks.shape == (1, 139, 272)
        assert np.array_equal(blocks[..., :16], blocks[..., 256:])

    def test_orthogonal_loopback(self):
        cfg = ModemConfig(n=32, alpha=1.0, cp_len=4, data_symbols_per_frame=8)
        bits = self._bits(cfg, frames=3)
        blocks = transmit(cfg, bits)
        out = receive(cfg, blocks)
        assert_allclose(out, pam_map(bits, 2).reshape(3, 8, 32), atol=1e-10)
        # The frames lead with the fixed sync | training rows.
        pilots = demultiplex(make_plan(cfg.kind, cfg.n, cfg.alpha), blocks[:, :11, 4:])
        assert_allclose(pilots, np.broadcast_to(np.concatenate(pilot_rows(cfg)), (3, 11, 32)),
                        atol=1e-10)

    def test_compressed_loopback_applies_correlation(self):
        cfg = ModemConfig(n=32, alpha=0.8, cp_len=4, data_symbols_per_frame=8)
        bits = self._bits(cfg, frames=2)
        out = receive(cfg, transmit(cfg, bits))
        c = correlation_matrix(cfg.kind, cfg.n, cfg.alpha).entries
        assert_allclose(out, pam_map(bits, 2).reshape(2, 8, 32) @ c.T, atol=1e-10)

    def test_raveled_and_block_input_agree(self):
        cfg = ModemConfig(n=32, alpha=0.8, cp_len=4, data_symbols_per_frame=8)
        blocks = transmit(cfg, self._bits(cfg, frames=2))
        assert np.array_equal(receive(cfg, blocks.ravel()), receive(cfg, blocks))

    def test_frames_are_independent(self):
        cfg = ModemConfig(n=32, alpha=0.8, cp_len=4, data_symbols_per_frame=8)
        bits = self._bits(cfg, frames=3)
        blocks = transmit(cfg, bits)
        for i in range(3):
            assert np.array_equal(transmit(cfg, bits[i:i + 1])[0], blocks[i])

    def test_truncated_stream_rejected(self):
        cfg = ModemConfig(n=32, alpha=1.0, cp_len=4, data_symbols_per_frame=8)
        samples = transmit(cfg, self._bits(cfg)).ravel()
        with pytest.raises(FramingError, match="whole number"):
            receive(cfg, samples[:-5])
        with pytest.raises(FramingError, match="19 blocks"):
            receive(cfg, samples[:36])
        with pytest.raises(FramingError):
            receive(cfg, samples[:0])

    def test_wrong_block_length_rejected(self):
        cfg = ModemConfig(n=32, alpha=1.0, cp_len=4, data_symbols_per_frame=8)
        blocks = transmit(cfg, self._bits(cfg))
        with pytest.raises(FramingError, match="block length 35"):
            receive(cfg, blocks[..., 1:])

    def test_wrong_row_length_rejected(self):
        cfg = ModemConfig(n=32, data_symbols_per_frame=2)
        bits = self._bits(ModemConfig(n=16, data_symbols_per_frame=2))
        with pytest.raises(FramingError):
            transmit(cfg, bits)
        with pytest.raises(FramingError):
            transmit(cfg, self._bits(cfg).ravel())

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
    def _samples(self):
        cfg = ModemConfig(n=16, alpha=0.8, cp_len=2, data_symbols_per_frame=3,
                          training_symbols=0, sync_symbols=0)
        rng = np.random.default_rng(7)
        return cfg, transmit(cfg, random_data_bits(cfg, rng, 1)).ravel()

    def test_csv_round_trip(self, tmp_path):
        cfg, samples = self._samples()
        path = tmp_path / "wave.csv"
        records.write_csv(path, samples[:, None])
        back = np.array([float(v) for (v,) in records.read_csv(path)])
        assert np.array_equal(back, samples)
        assert np.array_equal(receive(cfg, back), receive(cfg, samples))

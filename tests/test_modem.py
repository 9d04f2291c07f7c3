"""2-PAM mapping, framing, cyclic prefix, rate accounting, stream I/O."""

import csv
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ftnlab.equalize import IdConfig, id_equalize_frame
from ftnlab.exceptions import FramingError, ParameterError
from ftnlab.modem import (
    ModemConfig,
    PAM_LEVELS,
    SAMPLE_RATE,
    expected_sample_energy,
    pam_index,
    pam_map,
    experiment_baseline,
    pilot_rows,
    random_data_bits,
    rate_report,
    transmit,
)
from ftnlab import records
from ftnlab.icimodel import CorrelationMatrix, correlation_matrix
from ftnlab.transforms import TransformKind, demultiplex, make_plan, multiplex
from timedomain import measure_sample_energy, receive


class TestPamMapping:
    def test_binary_antipodal(self):
        assert_allclose(pam_map([0, 1]), [-1.0, 1.0])

    def test_demap_sign_decision(self):
        assert list(pam_index([-0.2, 0.9])) == [0, 1]

    def test_demap_tie_breaks_low(self):
        assert list(pam_index([0.0])) == [0]

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=10_000)
        assert np.array_equal(pam_index(pam_map(bits)), bits)

    @pytest.mark.parametrize(
        "bits", [[2, 0], [-1, 1], [0.5, 1.0], [0.0, np.nan], [1.0, np.inf], ["0", "1"],
                 np.array([], dtype=complex)]
    )
    def test_non_binary_bits_rejected(self, bits):
        with pytest.raises(ParameterError, match="bits must be 0 or 1"):
            pam_map(bits)

    def test_bool_and_float_bits_accepted(self):
        assert list(pam_map(np.array([True, False]))) == [1.0, -1.0]
        assert list(pam_map([1.0, 0.0, 0.0, 1.0])) == list(pam_map([1, 0, 0, 1]))
        # float32 bits give float64 levels, as every other dtype does.
        assert_array_equal(pam_map(np.array([1, 0], dtype=np.float32)), [1.0, -1.0], strict=True)

    def test_table_equals_level_formula(self):
        # Both bits against the unit-energy level formula at M = 2, bit for bit.
        bits = np.arange(2)
        expected = (2.0 * bits - 1) * np.sqrt(3.0 / (2 * 2 - 1.0))
        mapped = pam_map(bits)
        assert np.array_equal(mapped.view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(PAM_LEVELS.view(np.uint64), expected.view(np.uint64))

    def test_levels_are_indexed_by_bit(self):
        index = np.random.default_rng(2).integers(0, 2, size=(8, 50))
        assert np.array_equal(pam_map(index), PAM_LEVELS[index.ravel()])

    def test_levels_are_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            PAM_LEVELS[0] = 0.0

    def test_demap_infinities_on_outer_levels(self):
        assert list(pam_index([-np.inf, np.inf])) == [0, 1]

    def test_equalizer_and_demap_decide_alike(self):
        # The equalizer's final levels and pam_index use one nearest-level
        # rule: at the exact midpoint, beyond the outer levels and at +-inf.
        levels = PAM_LEVELS
        values = np.concatenate([
            [-np.inf, levels[0] - 1.0, levels[-1] + 1.0, np.inf],
            0.5 * (levels[:-1] + levels[1:]),
        ])
        n = values.size
        matrix = CorrelationMatrix(kind=TransformKind.FRCT, n=n, alpha=1.0, entries=np.eye(n))
        decided = levels[id_equalize_frame(IdConfig(0, matrix), values[None, :])]
        assert set(decided.ravel()) <= set(levels)
        assert np.array_equal(pam_index(decided).ravel(), pam_index(values))


def _binary_formula(values):
    # The general nearest-level formula at M = 2 (scale 1), step by step.
    t = np.asarray(values, dtype=np.float64) + 1.0
    t /= 2.0
    t -= 0.5
    return np.fmin(np.fmax(np.ceil(t), 0), 1).astype(np.uint8)


_TIE = 2.0**-53
_TINY = np.nextafter(0.0, 1.0)


# Every real dtype a detector input or a bit array may have.
_REAL_DTYPES = [bool, np.int8, np.int16, np.int64, np.uint8, np.uint64,
                np.float16, np.float32, np.float64]


def _edge_values(dtype):
    """Twelve values of `dtype`: its extremes, +-1, zeros, and for floats
    the subnormals, the 2-PAM tie and its upper neighbour, +-inf and NaN."""
    dtype = np.dtype(dtype)
    if dtype.kind == "b":
        edges = [False, True]
    elif dtype.kind in "iu":
        info = np.iinfo(dtype)
        edges = [info.min, info.max, 0, 1] + ([] if dtype.kind == "u" else [-1])
    else:
        tiny = np.nextafter(dtype.type(0), dtype.type(1))
        tie = dtype.type(_TIE)  # 0 in float16, where 2**-53 underflows
        edges = [-np.inf, np.finfo(dtype).min, -1.0, -tiny, -0.0, 0.0, tiny,
                 tie, np.nextafter(tie, dtype.type(1)), 1.0, np.inf, np.nan]
    return np.resize(np.array(edges, dtype=dtype), 12)


# One array in the memory layouts a caller may pass: contiguous, transposed,
# strided and zero-dimensional.
_LAYOUTS = {
    "vector": lambda v: v,
    "transposed": lambda v: v.reshape(3, 4).T,
    "strided": lambda v: v[::3],
    "scalar": lambda v: v[7].reshape(()),
}


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
        assert_array_equal(pam_index(values), want, strict=True)
        out = np.full(values.shape, 7, np.uint8)
        assert pam_index(values, out=out) is out
        assert_array_equal(out, want)

    @pytest.mark.parametrize("values", [["a"], [1.0, "a"], [None], [[1.0], [1.0, 2.0]],
                                        np.array([1 + 2j, -1]), [1 + 2j]])
    def test_non_real_values_rejected(self, values):
        with pytest.raises(ParameterError, match="values must be real numbers"):
            pam_index(values)

    def test_integer_and_bool_values_accepted(self):
        assert list(pam_index([3, -2, 0])) == list(pam_index([3.0, -2.0, 0.0]))
        assert list(pam_index(np.array([True, False]))) == [1, 0]

    @pytest.mark.parametrize("layout", _LAYOUTS)
    @pytest.mark.parametrize("dtype", _REAL_DTYPES)
    def test_decides_each_exact_value(self, dtype, layout):
        # Against Python's exact scalar comparison, value by value, in the
        # shape of the input and through `out=`.
        values = _LAYOUTS[layout](_edge_values(dtype))
        want = np.array([int(v > _TIE) for v in values.ravel().tolist()],
                        dtype=np.uint8).reshape(values.shape)
        assert_array_equal(pam_index(values), want, strict=True)
        out = np.full(values.shape, 7, np.uint8)
        assert pam_index(values, out=out) is out
        assert_array_equal(out, want, strict=True)


class TestPamMapDtypes:
    @pytest.mark.parametrize("layout", ["vector", "transposed", "matrix"])
    @pytest.mark.parametrize("dtype", _REAL_DTYPES)
    def test_maps_each_bit_in_c_order(self, dtype, layout):
        bits = np.resize(np.array([0, 1, 1, 0, 0, 0, 1], dtype=dtype), 12)
        bits = {"vector": bits, "transposed": bits.reshape(4, 3).T,
                "matrix": bits.reshape(3, 4)}[layout]
        want = np.array([(-1.0, 1.0)[int(b)] for b in bits.ravel().tolist()])
        assert_array_equal(pam_map(bits), want, strict=True)
        out = np.full(bits.size, np.nan)
        assert pam_map(bits, out=out) is out
        assert_array_equal(out, want, strict=True)
        assert_array_equal(pam_index(out), bits.ravel().astype(np.uint8), strict=True)


class TestConfig:
    def test_experiment_baseline_layout(self):
        cfg = experiment_baseline()
        assert (cfg.n, cfg.cp_len) == (256, 16)
        assert (cfg.alpha, cfg.kind, cfg.bits_per_symbol) == (0.8, TransformKind.FRCT, 256)
        assert (cfg.data_symbols_per_frame, cfg.training_symbols, cfg.sync_symbols) == (128, 10, 1)
        assert SAMPLE_RATE == 10e9

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"n": 1}, "n"),
            ({"alpha": 0.0}, "alpha"),
            ({"alpha": 1.2}, "alpha"),
            ({"cp_len": -1}, "cp_len"),
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
        assert str(info.value) == "kind must be a TransformKind, got str"

    def test_link_is_two_pam_with_no_order_field(self):
        assert [f.name for f in fields(ModemConfig)] == [
            "n", "alpha", "kind", "cp_len", "data_symbols_per_frame", "training_symbols",
            "sync_symbols",
        ]
        with pytest.raises(TypeError, match="pam_order"):
            ModemConfig(pam_order=2)
        with pytest.raises(TypeError, match="sample_rate"):
            ModemConfig(sample_rate=10e9)


class TestTransmitReceive:
    def _bits(self, cfg, frames=1, seed=0):
        return random_data_bits(cfg, np.random.default_rng(seed), frames)

    @pytest.mark.parametrize("frames", [-1, 0, 2.5, True])
    def test_frame_count_checked(self, frames):
        cfg = ModemConfig(n=16, alpha=0.8, data_symbols_per_frame=1)
        with pytest.raises(ParameterError,
                           match=f"^frames must be an integer >= 1, got {frames!r}$"):
            random_data_bits(cfg, np.random.default_rng(0), frames)

    def test_single_symbol_no_cp_equals_multiplex(self):
        cfg = ModemConfig(
            n=16, alpha=0.8, cp_len=0,
            data_symbols_per_frame=1, training_symbols=0, sync_symbols=0,
        )
        bits = self._bits(cfg)
        blocks = transmit(cfg, bits)
        assert blocks.shape == (1, 1, 16)
        plan = make_plan(cfg.kind, cfg.n, cfg.alpha)
        assert_allclose(blocks.ravel(), multiplex(plan, pam_map(bits)), atol=0)

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
        assert_allclose(out, pam_map(bits).reshape(3, 8, 32), atol=1e-10)
        # The frames lead with the fixed sync | training rows.
        pilots = demultiplex(make_plan(cfg.kind, cfg.n, cfg.alpha), blocks[:, :11, 4:])
        assert_allclose(pilots, np.broadcast_to(np.concatenate(pilot_rows(cfg)), (3, 11, 32)),
                        atol=1e-10)

    def test_compressed_loopback_applies_correlation(self):
        cfg = ModemConfig(n=32, alpha=0.8, cp_len=4, data_symbols_per_frame=8)
        bits = self._bits(cfg, frames=2)
        out = receive(cfg, transmit(cfg, bits))
        c = correlation_matrix(cfg.kind, cfg.n, cfg.alpha).entries
        assert_allclose(out, pam_map(bits).reshape(2, 8, 32) @ c.T, atol=1e-10)

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


class TestExpectedSampleEnergy:
    """The closed-form energy against the measured energy of `transmit`'s
    waveforms, the route the sweep's noise level used to take."""

    @pytest.mark.parametrize("config", [
        experiment_baseline(alpha=0.8),
        experiment_baseline(alpha=0.45, kind=TransformKind.FRHT),
        experiment_baseline(alpha=0.8, n=1024),
    ], ids=["FrCT-0.8", "FrHT-0.45", "FrCT-0.8-N1024"])
    def test_mean_measured_energy_within_four_standard_errors(self, config):
        rng = np.random.default_rng(31)
        frames = 4 if config.n == 256 else 1
        measured = [measure_sample_energy(transmit(config, random_data_bits(config, rng, frames)))
                    for _ in range(200)]
        error = np.std(measured, ddof=1) / np.sqrt(len(measured))
        assert abs(np.mean(measured) - expected_sample_energy(config)) < 4.0 * error

    @pytest.mark.parametrize("kind", list(TransformKind))
    def test_orthonormal_layout_without_overhead_is_exact(self, kind):
        config = ModemConfig(n=64, alpha=1.0, kind=kind, cp_len=0, data_symbols_per_frame=8,
                             training_symbols=0, sync_symbols=0)
        measured = measure_sample_energy(
            transmit(config, random_data_bits(config, np.random.default_rng(2), 3)))
        assert expected_sample_energy(config) == pytest.approx(measured, rel=1e-12, abs=0)
        assert expected_sample_energy(config) == pytest.approx(1.0, rel=1e-12, abs=0)

    @pytest.mark.parametrize("kind", list(TransformKind))
    @pytest.mark.parametrize("cp_len", [4, 16])
    def test_prefix_of_unit_power_samples_keeps_unit_energy(self, kind, cp_len):
        # At alpha = 1 every data sample has mean square 1 and a prefix
        # repeats such samples, so the mean stays 1 only if the prefix is
        # counted in both the energy and the sample count.
        config = ModemConfig(n=64, alpha=1.0, kind=kind, cp_len=cp_len, data_symbols_per_frame=8,
                             training_symbols=0, sync_symbols=0)
        assert expected_sample_energy(config) == pytest.approx(1.0, rel=1e-12, abs=0)

    def test_pilot_rows_and_prefixes_count(self):
        # One data bit per frame, so each frame's energy is almost all pilot
        # and prefix: the expectation is a weighted sum of exact block energies.
        config = ModemConfig(n=16, alpha=0.7, cp_len=5, data_symbols_per_frame=1,
                             training_symbols=3, sync_symbols=2)
        plan = make_plan(config.kind, 16, 0.7)
        blocks = transmit(config, random_data_bits(config, np.random.default_rng(3), 1))[0]
        pilot_energy = np.sum(np.square(blocks[:5]))
        data_power = np.sum(np.square(plan.kernel), axis=1)
        data_energy = data_power.sum() + data_power[16 - 5:].sum()
        expected = (pilot_energy + data_energy) / (6 * 21)
        assert expected_sample_energy(config) == pytest.approx(expected, rel=1e-12)


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

    @pytest.mark.parametrize("config", [
        experiment_baseline(),
        experiment_baseline(n=1024),
        ModemConfig(n=16, cp_len=5, data_symbols_per_frame=15, training_symbols=1,
                    sync_symbols=1),
        ModemConfig(n=1024, cp_len=32, data_symbols_per_frame=1, training_symbols=10,
                    sync_symbols=0),
        ModemConfig(n=64, data_symbols_per_frame=64, training_symbols=0, sync_symbols=0),
    ], ids=["baseline", "baseline-1024", "cp5-pilots2", "one-data-row", "no-overhead"])
    def test_net_bit_rate_is_the_bit_density(self, config):
        # The rate reads the density that sets the noise.  It is the share of
        # samples outside the prefix times the share of data rows, up to the
        # last bits of a float.
        report = rate_report(config)
        assert report.net_bit_rate == SAMPLE_RATE * config.bits_per_sample
        overhead = (config.n / (config.n + config.cp_len)) * (
            config.data_symbols_per_frame / config.symbols_per_frame)
        assert report.net_bit_rate == pytest.approx(SAMPLE_RATE * overhead, rel=1e-14, abs=0)

    def test_bits_per_sample_is_read_only(self):
        config = experiment_baseline()
        with pytest.raises(AttributeError):
            config.bits_per_sample = 1.0
        assert config.bits_per_sample == 256 * 128 / (272 * 139)

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
        with open(path, newline="") as fh:
            back = np.array([float(v) for (v,) in csv.reader(fh)])
        assert np.array_equal(back, samples)
        assert np.array_equal(receive(cfg, back), receive(cfg, samples))

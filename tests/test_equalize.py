"""Iterative-detection equalizer: recovery, traces, and the reference recursion."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from ftnlab.berlab import SweepSpec, run_ber_sweep
from ftnlab.equalize import IdConfig, IdTrace, _map_band, id_equalize_frame
from ftnlab import equalize, records
from ftnlab.exceptions import ParameterError, ShapeError
from ftnlab.icimodel import correlation_matrix
from ftnlab.modem import PAM_LEVELS, experiment_baseline, pam_index
from ftnlab.transforms import TransformKind


def _matrix(n, alpha, kind=TransformKind.FRCT):
    return correlation_matrix(kind, n, alpha)


def _compress(c, sent):
    return sent @ c.entries.T


def _equalize_one(cfg, r):
    """One received vector as a one-row stack: (decided levels, its IdTrace)."""
    trace = IdTrace()
    index = id_equalize_frame(cfg, np.asarray(r)[None, :], trace=trace)
    return PAM_LEVELS[index[0]], trace


# Quiet and signalling NaNs of both signs with several payloads, signed
# zeros, infinities and subnormals (the smallest and the largest).
_SPECIAL_VALUES = np.concatenate([
    np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
              0xFFF80000DEADBEEF, 0x7FF0000000000001, 0xFFF0000000000001,
              0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64),
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, np.nextafter(2.0**-1022, 0.0),
     -np.nextafter(2.0**-1022, 0.0)],
])

# Their float32 counterparts, and the 2**-53 tie of `pam_index` with its
# neighbours, which float32 holds exactly.
_TINY32 = np.float32(2.0**-126)
_SPECIAL_VALUES32 = np.concatenate([
    np.array([0x7FC00000, 0xFFC00000, 0x7FC00001, 0xFFC0BEEF, 0x7F800001, 0xFF800001,
              0x7FFFFFFF, 0xFFFFFFFF], dtype=np.uint32).view(np.float32),
    np.array([0.0, -0.0, np.inf, -np.inf, 1e-45, -1e-45, np.nextafter(_TINY32, 0),
              -np.nextafter(_TINY32, 0), 2.0**-53, -(2.0**-53),
              np.nextafter(np.float32(2.0**-53), 1), np.nextafter(np.float32(2.0**-53), 0)],
             dtype=np.float32),
])


class TestIdConfig:
    def test_negative_iterations(self):
        with pytest.raises(ParameterError, match="iterations"):
            IdConfig(iterations=-1, matrix=_matrix(4, 0.9))

    @pytest.mark.parametrize("iterations", [2.5, "3", None])
    def test_non_integral_iterations(self, iterations):
        message = f"iterations must be an integer >= 0, got {iterations!r}"
        with pytest.raises(ParameterError, match=re.escape(message)):
            IdConfig(iterations=iterations, matrix=_matrix(4, 0.9))

    def test_takes_no_constellation(self):
        # The detector is 2-PAM only: iterations and the matrix are its settings.
        with pytest.raises(TypeError):
            IdConfig(5, _matrix(4, 0.9), 4)

    @pytest.mark.parametrize("matrix", [np.eye(4), None, "C"])
    def test_matrix_must_be_a_correlation_matrix(self, matrix):
        with pytest.raises(ParameterError, match="^matrix must be a CorrelationMatrix"):
            IdConfig(3, matrix)

    def test_keeps_only_the_off_diagonal(self):
        n = 8
        c = _matrix(n, 0.9)
        cfg = IdConfig(3, c)
        assert not hasattr(cfg, "matrix")
        off = cfg.off_diagonal
        assert off.dtype == np.float32 and not off.flags.writeable
        # Every entry is C - I rounded once, the diagonal C_kk - 1 included.
        assert off.tobytes() == (c.entries - np.eye(n)).astype(np.float32).tobytes()
        assert "off_diagonal" not in repr(cfg)

    @pytest.mark.parametrize("alpha", [1.0, 0.8, 0.45])
    @pytest.mark.parametrize("kind", list(TransformKind), ids=lambda k: k.value)
    def test_off_diagonal_is_c_minus_i_rounded_once(self, kind, alpha):
        n = 16
        c = _matrix(n, alpha, kind)
        off = IdConfig(3, c).off_diagonal
        assert off.tobytes() == (c.entries - np.eye(n)).astype(np.float32).tobytes()

    def test_off_diagonal_is_one_read_only_array(self):
        cfg = IdConfig(3, _matrix(16, 0.45, TransformKind.FRHT))
        off = cfg.off_diagonal
        assert off is cfg.off_diagonal
        with pytest.raises(ValueError):
            off[0, 0] = 0.0

    def test_builds_no_float64_off_diagonal(self):
        # The build's traced peak stays below the 8 N^2 bytes of a float64
        # C - I: only the float32 result (4 N^2) and a diagonal are allocated.
        n = 256
        c = _matrix(n, 0.8)
        tracemalloc.start()
        try:
            IdConfig(3, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 4 * n * n <= peak < 5 * n * n

    def test_with_iterations_shares_the_off_diagonal(self):
        cfg = IdConfig(3, _matrix(8, 0.9))
        other = cfg.with_iterations(20)
        assert (cfg.iterations, other.iterations) == (3, 20)
        assert other.off_diagonal is cfg.off_diagonal and other != cfg
        rows = np.random.default_rng(16).normal(size=(5, 8))
        assert np.array_equal(id_equalize_frame(other, rows),
                              id_equalize_frame(IdConfig(20, _matrix(8, 0.9)), rows))

    @pytest.mark.parametrize("iterations", [-1, 2.5, None])
    def test_with_iterations_checks_the_count(self, iterations):
        message = f"iterations must be an integer >= 0, got {iterations!r}"
        with pytest.raises(ParameterError, match=re.escape(message)):
            IdConfig(3, _matrix(4, 0.9)).with_iterations(iterations)

    def test_configs_of_different_matrices_differ(self):
        a = IdConfig(3, _matrix(8, 0.9))
        assert a == a
        assert a != IdConfig(3, _matrix(8, 0.8))
        assert a != IdConfig(3, _matrix(8, 0.9))


class TestNoiselessRecovery:
    def test_identity_matrix_is_hard_decision(self):
        cfg = IdConfig(iterations=5, matrix=_matrix(8, 1.0))
        r = np.array([0.4, -0.1, 1.2, -2.0, 0.3, 0.6, -0.6, 1.0])
        out, _ = _equalize_one(cfg, r)
        assert np.array_equal(out, np.where(r > 0, 1.0, -1.0))

    @pytest.mark.parametrize("iterations", [1, 20])
    @pytest.mark.parametrize("kind", list(TransformKind), ids=lambda k: k.value)
    def test_orthogonal_spacing_is_hard_decision(self, kind, iterations):
        # At alpha = 1, C - I is zero to rounding: there is nothing to cancel.
        cfg = IdConfig(iterations, _matrix(32, 1.0, kind))
        rows = np.random.default_rng(4).normal(size=(16, 32))
        assert np.array_equal(id_equalize_frame(cfg, rows), pam_index(rows))

    def test_zero_iterations_is_plain_hard_decision(self):
        cfg = IdConfig(iterations=0, matrix=_matrix(8, 0.8))
        r = np.array([0.4, -0.1, 1.2, -2.0, 0.0, 0.6, -0.6, 1.0])
        out, _ = _equalize_one(cfg, r)
        expected = np.where(r > 0, 1.0, -1.0)
        # A tie at zero decides toward the lower level.
        expected[4] = -1.0
        assert np.array_equal(out, expected)

    def test_exhaustive_recovery_n8(self):
        # Every 2-PAM word of length 8 survives compression at alpha = 0.9.
        c = _matrix(8, 0.9)
        cfg = IdConfig(iterations=20, matrix=c)
        words = 2.0 * ((np.arange(256)[:, None] >> np.arange(8)) & 1) - 1.0
        out = PAM_LEVELS[id_equalize_frame(cfg, _compress(c, words))]
        assert np.array_equal(out, words)

    def test_exhaustive_recovery_n4_alpha08(self):
        c = _matrix(4, 0.8)
        cfg = IdConfig(iterations=20, matrix=c)
        words = 2.0 * ((np.arange(16)[:, None] >> np.arange(4)) & 1) - 1.0
        out = PAM_LEVELS[id_equalize_frame(cfg, _compress(c, words))]
        assert np.array_equal(out, words)

    def test_output_is_always_on_levels(self):
        c = _matrix(16, 0.7)
        cfg = IdConfig(iterations=3, matrix=c)
        rng = np.random.default_rng(1)
        out = id_equalize_frame(cfg, rng.normal(size=(32, 16)))
        assert out.dtype == np.uint8
        assert np.all(np.isin(out, (0, 1)))

    def test_order_variants_agree_on_clean_input(self):
        c = _matrix(16, 0.8)
        rng = np.random.default_rng(2)
        sent = 2.0 * rng.integers(0, 2, size=(64, 16)) - 1.0
        r = _compress(c, sent)
        a = PAM_LEVELS[id_equalize_frame(IdConfig(iterations=20, matrix=c), r)]
        assert np.array_equal(a, sent)

    def test_more_iterations_never_hurt_noiseless(self):
        c = _matrix(32, 0.75)
        rng = np.random.default_rng(3)
        sent = 2.0 * rng.integers(0, 2, size=(256, 32)) - 1.0
        r = _compress(c, sent)
        errs = []
        for iters in (1, 5, 20):
            out = PAM_LEVELS[id_equalize_frame(IdConfig(iterations=iters, matrix=c), r)]
            errs.append(int(np.sum(out != sent)))
        assert errs[0] >= errs[1] >= errs[2]


def _six_pass_map(values, d):
    """The band map as min/max passes, as a reference: a copy of `values`
    mapped, and the bool mask of the snapped entries.  A snapped entry gets
    max(min(|v|, d), 1) = 1 and an undecided one max(|v|, 0) = |v|, so it
    holds for d in [0, 1]; the magnitude's bits are then OR-ed into v's sign
    bit."""
    values = values.copy()
    mag = np.abs(values)
    decided = np.greater(mag, d)
    np.minimum(mag, d, out=mag)
    np.maximum(mag, decided, out=mag)
    word = f"u{values.itemsize}"
    bits = values.view(word)
    bits &= np.array(-0.0, values.dtype).view(word)
    bits |= mag.view(word)
    return values, decided


class TestMapBand:
    @pytest.mark.parametrize("d", [0.0, 0.25, 1.0, np.nextafter(0.5, 0.0)])
    def test_matches_nested_where_at_boundaries(self, d):
        above = np.nextafter(d, 2.0)
        below = np.nextafter(d, -np.inf)
        values = np.array(
            [-2.0, -1.0, -above, -d, -0.1, -0.0, 0.0, 0.1, d, above, 1.0, 2.0, np.nan,
             -np.inf, np.inf, -below, below]
        )
        expected = np.where(values > d, 1.0, np.where(values < -d, -1.0, values))
        mapped = values.copy()
        _map_band(mapped, d)
        np.testing.assert_array_equal(mapped, expected)
        np.testing.assert_array_equal(np.signbit(mapped), np.signbit(expected))

    @given(
        values=arrays(np.float64, st.integers(0, 64), elements=st.floats(width=64)),
        d=st.floats(0.0, 1.0),
        scratch=st.booleans(),
    )
    def test_two_level_map_is_sign_outside_band(self, values, d, scratch):
        # Compared bit for bit: array equality treats every NaN alike and
        # -0 like +0, so it cannot see a slip in the sign transfer.
        values = np.concatenate([values, _SPECIAL_VALUES])
        expected = np.where(np.abs(values) > d, np.copysign(1.0, values), values)
        mapped = values.copy()
        buffers = (np.empty_like(values), np.full(values.shape, 7, np.uint64)) if scratch else ()
        flags = _map_band(mapped, d, *buffers)
        np.testing.assert_array_equal(mapped.view(np.uint64), expected.view(np.uint64))
        assert flags.dtype == np.uint64 and set(np.unique(flags)) <= {0, 1}
        np.testing.assert_array_equal(flags != 0, np.abs(values) > d)

    @given(
        values=arrays(np.float32, st.integers(0, 64), elements=st.floats(width=32)),
        d=st.one_of(st.floats(0.0, 1.0), st.just(2.0**-53)),
        scratch=st.booleans(),
    )
    def test_two_level_map_is_sign_outside_band_in_float32(self, values, d, scratch):
        # As above, bit for bit, on the detector's float32 iterates: the band is
        # compared in float32, and the sign bit is the 32-bit word's.
        values = np.concatenate([values, _SPECIAL_VALUES32])
        band = np.float32(d)
        expected = np.where(np.abs(values) > band, np.copysign(np.float32(1.0), values), values)
        mapped = values.copy()
        buffers = (np.empty_like(values), np.full(values.shape, 7, np.uint32)) if scratch else ()
        flags = _map_band(mapped, d, *buffers)
        assert mapped.dtype == np.float32
        np.testing.assert_array_equal(mapped.view(np.uint32), expected.view(np.uint32))
        assert flags.dtype == np.uint32 and set(np.unique(flags)) <= {0, 1}
        snapped = flags != 0
        np.testing.assert_array_equal(snapped, np.abs(values) > band)
        if d >= 2.0**-53:  # each snapped entry gets the level `pam_index` decides
            with np.errstate(invalid="ignore"):  # widening a signalling NaN
                levels = PAM_LEVELS[pam_index(values)]
            np.testing.assert_array_equal(mapped[snapped], levels[snapped])

    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        words=st.data(),
        d=st.sampled_from([0.0, 2.0**-53, np.nextafter(0.0, 1.0), np.nextafter(2.0**-53, 1.0),
                           np.nextafter(1.0, 0.0), 1.0]),
    )
    def test_five_pass_map_equals_the_six_pass_map(self, dtype, words, d):
        # Random bit patterns cover subnormals and NaN payloads of both signs
        # throughout; the special values add signed zeros and infinities.
        word = np.dtype(f"u{np.dtype(dtype).itemsize}")
        drawn = words.draw(arrays(word, st.integers(0, 64))).view(dtype)
        special = _SPECIAL_VALUES32 if dtype == np.float32 else _SPECIAL_VALUES
        values = np.concatenate([drawn, special])
        d = float(d)
        expected, decided = _six_pass_map(values, d)
        mapped = values.copy()
        flags = _map_band(mapped, d)
        np.testing.assert_array_equal(mapped.view(word), expected.view(word))
        assert flags.dtype == word
        np.testing.assert_array_equal(flags, decided.astype(word))

    @given(
        values=arrays(np.float64, st.integers(1, 64), elements=st.floats(-3.0, 3.0)),
        d=st.floats(0.01, 1.0),
    )
    def test_snaps_what_lies_beyond_the_band_around_every_midpoint(self, values, d):
        # Snapped iff farther than d half-gaps from the midpoint between the
        # two levels, measured here directly (entries within 1e-9 of the band
        # edge are left out).
        levels = PAM_LEVELS
        half_gap = 0.5 * (levels[1] - levels[0])
        midpoints = 0.5 * (levels[1:] + levels[:-1])
        to_midpoint = np.min(np.abs(values[:, None] - midpoints), axis=1) / half_gap
        clear = np.abs(to_midpoint - d) > 1e-9
        mapped = values.copy()
        snapped = _map_band(mapped, d) != 0
        np.testing.assert_array_equal(snapped[clear], to_midpoint[clear] > d)
        np.testing.assert_array_equal(mapped[snapped], levels[pam_index(values)][snapped])
        np.testing.assert_array_equal(mapped[~snapped], values[~snapped])

    @given(
        values=arrays(np.float64, st.integers(0, 64), elements=st.floats(width=64)),
        d=st.floats(2.0**-53, 1.0),
    )
    def test_two_level_snap_is_the_pam_index_level_from_the_smallest_band(self, values, d):
        # The precondition d >= 2**-53: every snapped entry goes to the level
        # `pam_index` decides, tiny positives and its 2**-53 tie included.
        values = np.concatenate([values, _SPECIAL_VALUES, [1e-20, 2.0**-53, -2.0**-53,
                                                           np.nextafter(2.0**-53, 1.0)]])
        mapped = values.copy()
        snapped = _map_band(mapped, d) != 0
        np.testing.assert_array_equal(mapped[snapped], PAM_LEVELS[pam_index(values)][snapped])

    @pytest.mark.parametrize("iterations", [1, 2, 3, 7, 20, 1000])
    def test_detector_bands_meet_the_precondition(self, iterations, monkeypatch):
        bands = []

        def recording_map_band(values, d, *args):
            bands.append(d)
            return _map_band(values, d, *args)

        monkeypatch.setattr(equalize, "_map_band", recording_map_band)
        # With a trace every iteration maps, the last one too.
        id_equalize_frame(IdConfig(iterations, _matrix(8, 0.9)), np.ones((2, 8)), trace=IdTrace())
        assert len(bands) == iterations
        assert_allclose(min(bands), 1.0 / iterations)
        assert min(bands) >= 2.0**-53

    def test_midpoints_and_nan_stay_undecided_and_outer_entries_snap(self):
        levels = PAM_LEVELS
        half_gap = 0.5 * (levels[1] - levels[0])
        midpoints = 0.5 * (levels[1:] + levels[:-1])
        outer = [levels[0] - 0.9 * half_gap, levels[-1] + 0.9 * half_gap]
        values = np.concatenate([midpoints, [np.nan], outer])
        mapped = values.copy()
        flags = _map_band(mapped, 0.25)
        np.testing.assert_array_equal(flags, [0, 0, 1, 1])
        np.testing.assert_array_equal(mapped, [*midpoints, np.nan, levels[0], levels[-1]])


class TestTrace:
    def test_band_shrinks_to_zero(self):
        cfg = IdConfig(iterations=4, matrix=_matrix(8, 0.9))
        _, trace = _equalize_one(cfg, np.zeros(8))
        assert_allclose(trace.d_values, [0.75, 0.5, 0.25, 0.0])

    def test_undecided_counts_monotone_on_clean_input(self):
        c = _matrix(16, 0.85)
        cfg = IdConfig(iterations=10, matrix=c)
        rng = np.random.default_rng(4)
        sent = 2.0 * rng.integers(0, 2, size=16) - 1.0
        _, trace = _equalize_one(cfg, c.entries @ sent)
        counts = trace.undecided_counts
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 0

    def test_stack_trace_pools_its_rows(self):
        c = _matrix(16, 0.8)
        cfg = IdConfig(iterations=8, matrix=c)
        rng = np.random.default_rng(8)
        rows = _compress(c, PAM_LEVELS[rng.integers(0, 2, size=(12, 16))])
        rows += 0.2 * rng.normal(size=rows.shape)
        pooled = IdTrace()
        id_equalize_frame(cfg, rows, trace=pooled)
        singles = [_equalize_one(cfg, row)[1] for row in rows]
        for single in singles:
            assert single.d_values == pooled.d_values
        assert_allclose(pooled.d_values, [1.0 - i / 8 for i in range(1, 9)])
        counts = np.sum([single.undecided_counts for single in singles], axis=0)
        assert pooled.undecided_counts == counts.tolist()
        assert pooled.undecided_counts[0] > 0

    @pytest.mark.parametrize("iterations", [0, 1, 6])
    def test_trace_leaves_the_indices_unchanged(self, iterations):
        c = _matrix(16, 0.8)
        cfg = IdConfig(iterations=iterations, matrix=c)
        rows = np.random.default_rng(9).normal(size=(20, 16))
        trace = IdTrace()
        traced = id_equalize_frame(cfg, rows, trace=trace)
        assert traced.tobytes() == id_equalize_frame(cfg, rows).tobytes()
        assert len(trace.d_values) == len(trace.undecided_counts) == iterations

    @pytest.mark.parametrize("m", [12, 16, 40])
    @pytest.mark.parametrize("iterations", [1, 2, 20])
    def test_last_map_is_skipped_without_a_trace(self, iterations, m, monkeypatch):
        # The final decision reads signs only, which the band map never
        # changes, so the last iteration maps only for a trace: the decisions
        # are the same either way, at m < N, m = N and m > N, and the trace
        # still gets the last iteration's undecided count.
        c = _matrix(16, 0.8)
        cfg = IdConfig(iterations=iterations, matrix=c)
        rng = np.random.default_rng(10)
        rows = _compress(c, PAM_LEVELS[rng.integers(0, 2, size=(m, 16))])
        rows += 0.4 * rng.normal(size=rows.shape)
        maps = []

        def counted(values, d, *args):
            maps.append(d)
            return _map_band(values, d, *args)

        monkeypatch.setattr(equalize, "_map_band", counted)
        plain = id_equalize_frame(cfg, rows).copy()
        assert len(maps) == iterations - 1
        trace = IdTrace()
        traced = id_equalize_frame(cfg, rows, trace=trace)
        assert len(maps) == 2 * iterations - 1
        assert traced.tobytes() == plain.tobytes()
        assert len(trace.undecided_counts) == iterations
        # The last count is that of the entries inside the last band, 1/I, in
        # the float32 recursion (as `_reference_indices`, stopped before the
        # last map).
        received = rows.astype(np.float32)
        estimate = np.zeros_like(received)
        for i in range(1, iterations + 1):
            estimate = received - estimate @ cfg.off_diagonal.T
            d = 1.0 - (i - 1) / iterations
            undecided = int(np.count_nonzero(np.abs(estimate) <= d))
            estimate = np.where(np.abs(estimate) > d, np.copysign(1.0, estimate), estimate)
        assert trace.undecided_counts[-1] == undecided

    @pytest.mark.parametrize("trace", [[], {}, "trace"])
    def test_trace_must_be_an_id_trace(self, trace):
        cfg = IdConfig(iterations=2, matrix=_matrix(8, 0.9))
        with pytest.raises(ParameterError, match="^trace must be an IdTrace"):
            id_equalize_frame(cfg, np.zeros((1, 8)), trace=trace)

    def test_csv_export(self, tmp_path):
        cfg = IdConfig(iterations=3, matrix=_matrix(8, 0.9))
        _, trace = _equalize_one(cfg, np.ones(8))
        path = tmp_path / "trace.csv"
        records.write_table(path, "csv", {
            "iteration": range(1, len(trace.d_values) + 1),
            "d": trace.d_values,
            "undecided_count": trace.undecided_counts,
        })
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,d,undecided_count"
        assert len(lines) == 4


class TestShapes:
    def test_vector_length_checked(self):
        cfg = IdConfig(iterations=2, matrix=_matrix(8, 0.9))
        with pytest.raises(ShapeError):
            _equalize_one(cfg, np.zeros(7))

    def test_frame_shape_checked(self):
        cfg = IdConfig(iterations=2, matrix=_matrix(8, 0.9))
        with pytest.raises(ShapeError):
            id_equalize_frame(cfg, np.zeros((4, 7)))
        with pytest.raises(ShapeError):
            id_equalize_frame(cfg, np.zeros(8))

    @pytest.mark.parametrize("config", ["x", None, 2, _matrix(8, 0.9)],
                             ids=["str", "None", "int", "matrix"])
    def test_config_checked(self, config):
        with pytest.raises(ParameterError, match="^config must be an IdConfig, got "):
            id_equalize_frame(config, np.zeros((4, 8)))

    def test_frame_matches_per_vector(self):
        c = _matrix(8, 0.8)
        cfg = IdConfig(iterations=6, matrix=c)
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(10, 8))
        batch = PAM_LEVELS[id_equalize_frame(cfg, rows)]
        for i in range(10):
            single, _ = _equalize_one(cfg, rows[i])
            assert np.array_equal(batch[i], single)


def _reference_indices(off_diagonal, received, iterations):
    """The module docstring's recursion, out of place and with np.where, in
    the precision of its arguments: S_0 = 0, S_i = R - (C - I) @ S_{i-1}, and
    iteration i's band map at d = 1 - (i-1)/I; returns the level indices of
    the final hard decision."""
    s = np.zeros_like(received)
    for i in range(1, iterations + 1):
        s = received - s @ off_diagonal.T
        d = 1.0 - (i - 1) / iterations
        s = np.where(np.abs(s) > d, np.copysign(1.0, s), s)
    return pam_index(s)


def _stale_work(rows, n):
    """A detector `work` of stale contents: NaN in the float planes, 7 in the flags."""
    work = np.full((4, rows, n), np.nan, np.float32)
    work[3].view(np.uint32)[:] = 7
    return work


class TestReferenceRecursion:
    @pytest.mark.parametrize("layout", ["plain", "out", "buffers", "buffers+out", "aliased"])
    @pytest.mark.parametrize("iterations", [1, 2, 3, 20])
    # Light noise, and heavy noise that leaves many entries inside the band.
    @pytest.mark.parametrize("noise", [0.05, 0.6])
    @pytest.mark.parametrize(
        "kind,alpha", [(TransformKind.FRCT, 0.8), (TransformKind.FRHT, 0.6)]
    )
    # Stacks with fewer rows than N run the loop transposed; the reference
    # multiplies rows, so both orientations are checked against it.
    @pytest.mark.parametrize("rows,n", [(48, 32), (33, 32), (32, 32), (31, 32), (1, 32),
                                        (16, 64)])
    def test_frame_matches_out_of_place_recursion(self, kind, alpha, noise, iterations,
                                                  layout, rows, n):
        # In the detector's precision: float32 R and C - I.
        c = _matrix(n, alpha, kind)
        rng = np.random.default_rng(11)
        sent = PAM_LEVELS[rng.integers(0, 2, size=(rows, n))]
        received = _compress(c, sent) + noise * rng.normal(size=(rows, n))
        cfg = IdConfig(iterations, c)
        expected = _reference_indices(cfg.off_diagonal, received.astype(np.float32),
                                      iterations)
        # Stale contents of `work` must not leak into the result.  "out":
        # stale decision bytes (7) in plane 0; "buffers": NaN in the float
        # planes and 7 in the flags; "buffers+out": every plane as a previous
        # call left it; "aliased": a float32 view of a float64 block.
        work = None
        if layout == "out":
            work = np.full((4, rows, n), np.nan, np.float32)
            work[0].reshape(-1).view(np.uint8)[:] = 7
        elif layout == "buffers":
            work = _stale_work(rows, n)
        elif layout == "buffers+out":
            work = _stale_work(rows, n)
            id_equalize_frame(cfg.with_iterations(iterations + 1), -received, work=work)
        elif layout == "aliased":
            block = np.full(4 * rows * n, np.nan)
            work = block.view(np.float32)[:4 * rows * n].reshape(4, rows, n)
        got = id_equalize_frame(cfg, received, work=work)
        if work is not None:
            # The decisions lie in plane 0.
            assert np.shares_memory(got, work[0])
            assert not np.shares_memory(got, work[1:])
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m,n", [(1, 32), (31, 32)])
    def test_fewer_rows_than_n_decide_as_inside_a_taller_stack(self, m, n):
        # The m rows alone run the transposed loop, and among 2N rows the row
        # loop.  The other rows lie far outside every band, so they add no
        # undecided entry and the two traces agree too.
        c = _matrix(n, 0.8)
        rng = np.random.default_rng(13)
        received = _compress(c, PAM_LEVELS[rng.integers(0, 2, size=(m, n))])
        received += 0.6 * rng.normal(size=(m, n))
        tall = 100.0 * PAM_LEVELS[rng.integers(0, 2, size=(2 * n, n))]
        tall[5:5 + m] = received
        for iterations in (1, 2, 5, 20):
            cfg = IdConfig(iterations, c)
            alone, inside = IdTrace(), IdTrace()
            got = id_equalize_frame(cfg, received, trace=alone)
            expected = id_equalize_frame(cfg, tall, trace=inside)[5:5 + m]
            assert got.tobytes() == expected.tobytes()
            assert alone == inside
            assert sum(alone.undecided_counts) > 0

    # Every (kind, alpha) the acceptance gate detects with I > 0.
    @pytest.mark.parametrize("kind,alpha", [
        *((TransformKind.FRCT, alpha) for alpha in (1.0, 0.9, 0.8, 0.7)),
        *((TransformKind.FRHT, alpha) for alpha in (0.45, 0.4, 0.35)),
    ])
    @pytest.mark.parametrize("n", [16, 256, 1024])
    def test_off_diagonal_is_symmetric_to_the_last_bit(self, kind, alpha, n):
        # Both loops multiply by C - I as stored, where the recursion
        # multiplies by its transpose.
        off = IdConfig(1, _matrix(n, alpha, kind)).off_diagonal
        assert off.tobytes() == np.ascontiguousarray(off.T).tobytes()

    # The sweep's stacks: 512 x 256 multiplies rows, 128 x 1024 (one frame
    # of the large-N layout) runs transposed.
    @pytest.mark.parametrize("rows,n", [(512, 256), (128, 1024)])
    def test_two_level_loop_allocates_no_full_size_array(self, rows, n):
        # With `work` given, the loop runs in place: the traced peak stays
        # below the size of one bool array of the stack's shape.
        c = _matrix(n, 0.8)
        rng = np.random.default_rng(12)
        received = _compress(c, 2.0 * rng.integers(0, 2, size=(rows, n)) - 1.0)
        received += 0.1 * rng.normal(size=(rows, n))
        work = _stale_work(rows, n)
        cfg = IdConfig(20, c)
        id_equalize_frame(cfg, received, work=work)
        tracemalloc.start()
        try:
            id_equalize_frame(cfg, received, work=work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows * n


# The ID points of acceptance criteria 05b, 06a and 06b, and FrCT 0.8 at
# 10 dB with I = 5 and 20, at N = 256 in the baseline layout:
# (kind, alpha, Eb/N0s, iteration counts).
_GATE_CELLS = [
    (TransformKind.FRCT, 0.8, (10.0, 20.0), (5, 20)),
    (TransformKind.FRCT, 0.7, (20.0,), (20, 40)),
    (TransformKind.FRHT, 0.45, (10.0, 20.0), (20,)),
]


class TestFloat64Agreement:
    """The float32 detector decides as the float64 recursion does, but for
    entries that float32 rounding moves across a band edge or the decision
    threshold.  On the first four batches of each of these points (the
    gate's seed, 0), at most 1e-5 of all decisions may differ."""

    BATCHES = 4
    BOUND = 1e-5

    def test_decisions_agree_with_float64_on_the_gate_cells(self, monkeypatch):
        detector = equalize.id_equalize_frame
        cell = {}

        def compared(config, rows, **work):
            index = detector(config, rows, **work)
            expected = _reference_indices(cell["off_diagonal"], rows, config.iterations)
            cell["differing"] += int(np.count_nonzero(index != expected))
            cell["decisions"] += index.size
            return index

        monkeypatch.setattr(equalize, "id_equalize_frame", compared)
        baseline = experiment_baseline()
        batch_bits = 4 * baseline.data_bits_per_frame
        differing = decisions = 0
        for kind, alpha, ebn0_dbs, iteration_counts in _GATE_CELLS:
            off_diagonal = _matrix(baseline.n, alpha, kind).entries - np.eye(baseline.n)
            for iterations in iteration_counts:
                for ebn0_db in ebn0_dbs:
                    cell.update(off_diagonal=off_diagonal, differing=0, decisions=0)
                    run_ber_sweep(SweepSpec(
                        config=baseline, alphas=(alpha,), ebn0_dbs=(ebn0_db,),
                        iteration_counts=(iterations,), kinds=(kind,),
                        max_bits=self.BATCHES * batch_bits, min_errors=0,
                    ))
                    print(f"[float64 agreement] {kind.value} alpha={alpha} {ebn0_db} dB "
                          f"I={iterations}: {cell['differing']} of {cell['decisions']} "
                          "decisions differ")
                    differing += cell["differing"]
                    decisions += cell["decisions"]
        assert decisions == 8 * self.BATCHES * batch_bits
        assert differing <= self.BOUND * decisions, (differing, decisions)

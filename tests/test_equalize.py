"""Iterative-detection equalizer: recovery, traces, and linear analysis."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from ftnlab.equalize import (
    IdConfig,
    IdTrace,
    _map_band,
    id_equalize_frame,
    id_equalize_linear,
    iteration_spectral_radius,
)
from ftnlab import equalize, records
from ftnlab.exceptions import ParameterError, ShapeError
from ftnlab.icimodel import correlation_matrix
from ftnlab.modem import pam_index, pam_levels
from ftnlab.transforms import TransformKind


def _matrix(n, alpha, kind=TransformKind.FRCT):
    return correlation_matrix(kind, n, alpha)


def _compress(c, sent):
    return sent @ c.entries.T


def _equalize_one(cfg, r):
    """One received vector as a one-row stack: (decided levels, its IdTrace)."""
    trace = IdTrace()
    index = id_equalize_frame(cfg, np.asarray(r)[None, :], trace=trace)
    return pam_levels(cfg.constellation)[index[0]], trace


# Quiet and signalling NaNs of both signs with several payloads, signed
# zeros, infinities and subnormals (the smallest and the largest).
_SPECIAL_VALUES = np.concatenate([
    np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
              0xFFF80000DEADBEEF, 0x7FF0000000000001, 0xFFF0000000000001,
              0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64),
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, np.nextafter(2.0**-1022, 0.0),
     -np.nextafter(2.0**-1022, 0.0)],
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

    @pytest.mark.parametrize("m", [0, 1, 3, 5, 2.0])
    def test_bad_constellation(self, m):
        with pytest.raises(ParameterError, match="constellation"):
            IdConfig(iterations=5, matrix=_matrix(4, 0.9), constellation=m)

    @pytest.mark.parametrize("matrix", [np.eye(4), None, "C"])
    def test_matrix_must_be_a_correlation_matrix(self, matrix):
        with pytest.raises(ParameterError, match="^matrix must be an icimodel.CorrelationMatrix"):
            IdConfig(3, matrix)

    def test_keeps_only_the_off_diagonal(self):
        c = _matrix(8, 0.9)
        cfg = IdConfig(3, c)
        assert not hasattr(cfg, "matrix")
        assert cfg.off_diagonal is c.off_diagonal
        assert "off_diagonal" not in repr(cfg)

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
        out = pam_levels(2)[id_equalize_frame(cfg, _compress(c, words))]
        assert np.array_equal(out, words)

    def test_exhaustive_recovery_n4_alpha08(self):
        c = _matrix(4, 0.8)
        cfg = IdConfig(iterations=20, matrix=c)
        words = 2.0 * ((np.arange(16)[:, None] >> np.arange(4)) & 1) - 1.0
        out = pam_levels(2)[id_equalize_frame(cfg, _compress(c, words))]
        assert np.array_equal(out, words)

    def test_output_is_always_on_levels(self):
        c = _matrix(16, 0.7)
        cfg = IdConfig(iterations=3, matrix=c)
        rng = np.random.default_rng(1)
        out = id_equalize_frame(cfg, rng.normal(size=(32, 16)))
        assert out.dtype == np.int64
        assert np.all(np.isin(out, (0, 1)))

    def test_order_variants_agree_on_clean_input(self):
        c = _matrix(16, 0.8)
        rng = np.random.default_rng(2)
        sent = 2.0 * rng.integers(0, 2, size=(64, 16)) - 1.0
        r = _compress(c, sent)
        a = pam_levels(2)[id_equalize_frame(IdConfig(iterations=20, matrix=c), r)]
        assert np.array_equal(a, sent)

    def test_more_iterations_never_hurt_noiseless(self):
        c = _matrix(32, 0.75)
        rng = np.random.default_rng(3)
        sent = 2.0 * rng.integers(0, 2, size=(256, 32)) - 1.0
        r = _compress(c, sent)
        errs = []
        for iters in (1, 5, 20):
            out = pam_levels(2)[id_equalize_frame(IdConfig(iterations=iters, matrix=c), r)]
            errs.append(int(np.sum(out != sent)))
        assert errs[0] >= errs[1] >= errs[2]


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
        _map_band(mapped, d, pam_levels(2))
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
        buffers = (np.empty_like(values), np.empty(values.shape, bool)) if scratch else ()
        snapped = _map_band(mapped, d, pam_levels(2), *buffers)
        np.testing.assert_array_equal(mapped.view(np.uint64), expected.view(np.uint64))
        np.testing.assert_array_equal(snapped, np.abs(values) > d)

    @pytest.mark.parametrize("d", [0.0, 0.25, 1.0])
    @pytest.mark.parametrize("m", [4, 8])
    def test_multilevel_matches_where_form_at_boundaries(self, m, d):
        levels = pam_levels(m)
        half_gap = 0.5 * (levels[1] - levels[0])
        midpoints = 0.5 * (levels[1:] + levels[:-1])
        edges = np.concatenate([midpoints - d * half_gap, midpoints + d * half_gap])
        values = np.concatenate([
            levels, midpoints, edges, np.nextafter(edges, np.inf),
            np.nextafter(edges, -np.inf), [levels[0] - 1.0, levels[-1] + 1.0, np.nan],
        ])
        nearest = levels[pam_index(values, m)]
        offset = np.abs(values - nearest)
        to_midpoint = np.where(np.abs(values) > levels[-1], half_gap + offset,
                               half_gap - offset)
        decided = to_midpoint > d * half_gap
        expected = np.where(decided, nearest, values)
        mapped = values.copy()
        snapped = _map_band(mapped, d, levels)
        np.testing.assert_array_equal(mapped, expected)
        np.testing.assert_array_equal(snapped, decided)

    @given(
        values=arrays(np.float64, st.integers(1, 64), elements=st.floats(-3.0, 3.0)),
        d=st.floats(0.01, 1.0),
        m=st.sampled_from([2, 4, 8]),
    )
    def test_snaps_what_lies_beyond_the_band_around_every_midpoint(self, values, d, m):
        # The rule of every PAM order: snapped iff farther than d half-gaps
        # from the nearest midpoint between adjacent levels, measured here
        # directly (entries within 1e-9 of the band edge are left out).
        levels = pam_levels(m)
        half_gap = 0.5 * (levels[1] - levels[0])
        midpoints = 0.5 * (levels[1:] + levels[:-1])
        to_midpoint = np.min(np.abs(values[:, None] - midpoints), axis=1) / half_gap
        clear = np.abs(to_midpoint - d) > 1e-9
        mapped = values.copy()
        snapped = _map_band(mapped, d, levels)
        np.testing.assert_array_equal(snapped[clear], to_midpoint[clear] > d)
        np.testing.assert_array_equal(mapped[snapped], levels[pam_index(values, m)][snapped])
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
        snapped = _map_band(mapped, d, pam_levels(2))
        np.testing.assert_array_equal(mapped[snapped], pam_levels(2)[pam_index(values, 2)][snapped])

    @pytest.mark.parametrize("iterations", [1, 2, 3, 7, 20, 1000])
    def test_detector_bands_meet_the_precondition(self, iterations, monkeypatch):
        bands = []

        def recording_map_band(values, d, *args):
            bands.append(d)
            return _map_band(values, d, *args)

        monkeypatch.setattr(equalize, "_map_band", recording_map_band)
        id_equalize_frame(IdConfig(iterations, _matrix(8, 0.9)), np.ones((2, 8)))
        assert len(bands) == iterations
        assert_allclose(min(bands), 1.0 / iterations)
        assert min(bands) >= 2.0**-53

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_midpoints_and_nan_stay_undecided_and_outer_entries_snap(self, m):
        levels = pam_levels(m)
        half_gap = 0.5 * (levels[1] - levels[0])
        midpoints = 0.5 * (levels[1:] + levels[:-1])
        outer = [levels[0] - 0.9 * half_gap, levels[-1] + 0.9 * half_gap]
        values = np.concatenate([midpoints, [np.nan], outer])
        mapped = values.copy()
        snapped = _map_band(mapped, 0.25, levels)
        np.testing.assert_array_equal(snapped, [False] * (m - 1) + [False, True, True])
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

    @pytest.mark.parametrize("m", [4, 16])
    def test_multilevel_counts_what_is_off_the_levels(self, m, monkeypatch):
        # Each band map snaps to the exact levels, and the trace counts as
        # undecided exactly the entries it left off them; only at the first
        # iteration, d = 1, does an entry on a level count as undecided.
        levels = pam_levels(m)
        off_levels = []

        def recording_map_band(values, d, *args):
            snapped = _map_band(values, d, *args)
            assert np.all(np.isin(values[snapped], levels))
            off_levels.append(int(np.sum(~np.isin(values, levels))))
            return snapped

        monkeypatch.setattr(equalize, "_map_band", recording_map_band)
        c = _matrix(64, 0.9)
        rng = np.random.default_rng(7)
        sent = levels[rng.integers(0, m, size=64)]
        r = c.entries @ sent + 0.01 * rng.normal(size=64)
        out, trace = _equalize_one(IdConfig(iterations=10, matrix=c, constellation=m), r)
        assert len(off_levels) == 10
        assert trace.undecided_counts[1:] == off_levels[1:]
        if m == 4:
            assert np.array_equal(out, sent)
            assert trace.undecided_counts[-1] == 0

    @pytest.mark.parametrize("m", [2, 4])
    def test_stack_trace_pools_its_rows(self, m):
        c = _matrix(16, 0.8)
        cfg = IdConfig(iterations=8, matrix=c, constellation=m)
        rng = np.random.default_rng(8)
        rows = _compress(c, pam_levels(m)[rng.integers(0, m, size=(12, 16))])
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

    def test_frame_matches_per_vector(self):
        c = _matrix(8, 0.8)
        cfg = IdConfig(iterations=6, matrix=c)
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(10, 8))
        batch = pam_levels(2)[id_equalize_frame(cfg, rows)]
        for i in range(10):
            single, _ = _equalize_one(cfg, rows[i])
            assert np.array_equal(batch[i], single)


def _reference_indices(off_diagonal, received, iterations, m):
    """The module docstring's recursion, out of place and with np.where:
    S_0 = 0, S_i = R - (C - I) @ S_{i-1}, and iteration i's band map at
    d = 1 - (i-1)/I; returns the level indices of the final hard decision."""
    levels = pam_levels(m)
    half_gap = 0.5 * (levels[1] - levels[0])
    s = np.zeros_like(received)
    for i in range(1, iterations + 1):
        s = received - s @ off_diagonal.T
        d = 1.0 - (i - 1) / iterations
        if m == 2:
            s = np.where(np.abs(s) > d, np.copysign(1.0, s), s)
            continue
        nearest = levels[pam_index(s, m)]
        offset = np.abs(s - nearest)
        to_midpoint = np.where(np.abs(s) > levels[-1], half_gap + offset, half_gap - offset)
        s = np.where(to_midpoint > d * half_gap, nearest, s)
    return pam_index(s, m)


class TestReferenceRecursion:
    @pytest.mark.parametrize("layout", ["plain", "out", "buffers", "buffers+out", "aliased"])
    @pytest.mark.parametrize("iterations", [1, 2, 3, 20])
    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize(
        "kind,alpha", [(TransformKind.FRCT, 0.8), (TransformKind.FRHT, 0.6)]
    )
    def test_frame_matches_out_of_place_recursion(self, kind, alpha, m, iterations, layout):
        rows, n = 48, 32
        c = _matrix(n, alpha, kind)
        rng = np.random.default_rng(11)
        sent = pam_levels(m)[rng.integers(0, m, size=(rows, n))]
        received = _compress(c, sent) + 0.05 * rng.normal(size=(rows, n))
        expected = _reference_indices(c.off_diagonal, received, iterations, m)
        buffers = {}
        # Stale contents must not leak into the result.
        if layout.startswith("buffers") or layout == "aliased":
            product = np.full((rows, n), np.nan)
            buffers = dict(estimate=np.full((rows, n), np.nan), product=product,
                           decided=np.ones((rows, n), bool))
            if layout == "aliased":
                # The sweep's layout: the indices share `product`'s memory.
                buffers["out"] = product.view(np.int64)
        if layout.endswith("out"):
            # An `out` of its own, apart from the work buffers.
            buffers["out"] = np.full((rows, n), -7, np.int64)
        got = id_equalize_frame(IdConfig(iterations, c, m), received, **buffers)
        if "out" in buffers:
            assert got is buffers["out"]
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_two_level_loop_allocates_no_full_size_array(self):
        # With every buffer given, the loop runs in place: the traced peak
        # stays below the size of one bool array of the stack's shape.
        rows, n = 512, 256
        c = _matrix(n, 0.8)
        rng = np.random.default_rng(12)
        received = _compress(c, 2.0 * rng.integers(0, 2, size=(rows, n)) - 1.0)
        received += 0.1 * rng.normal(size=(rows, n))
        product = np.empty((rows, n))
        buffers = dict(out=product.view(np.int64), estimate=np.empty((rows, n)),
                       product=product, decided=np.empty((rows, n), bool))
        cfg = IdConfig(20, c)
        id_equalize_frame(cfg, received, **buffers)
        tracemalloc.start()
        try:
            id_equalize_frame(cfg, received, **buffers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows * n


class TestLinearRecursion:
    def test_converges_to_zero_forcing_when_contractive(self):
        c = _matrix(8, 0.95)
        assert iteration_spectral_radius(c) < 1.0
        rng = np.random.default_rng(6)
        sent = rng.normal(size=8)
        r = c.entries @ sent
        res = id_equalize_linear(IdConfig(iterations=200, matrix=c), r)
        assert not res.diverged
        assert np.max(np.abs(res.values - sent)) < 1e-6

    def test_divergence_reported(self):
        c = _matrix(16, 0.3)
        assert iteration_spectral_radius(c) > 1.0
        res = id_equalize_linear(
            IdConfig(iterations=500, matrix=c), np.ones(16)
        )
        assert res.diverged
        assert len(res.norms) < 500

    def test_spectral_radius_zero_at_alpha_one(self):
        assert iteration_spectral_radius(_matrix(32, 1.0)) < 1e-10

    def test_norm_history_recorded(self):
        c = _matrix(8, 0.95)
        res = id_equalize_linear(IdConfig(iterations=10, matrix=c), np.ones(8))
        assert res.norms.shape == (10,)
        assert np.all(res.norms > 0)

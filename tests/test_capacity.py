"""Capacity bounds, sphere volumes, and compressed-spacing gain."""

import math

import pytest

from ftnlab.capacity import (
    CapacityParams,
    capacity_ftn,
    distinguishable_signals,
    log_sphere_volume,
    shannon_limit,
    sphere_volume,
)
from ftnlab.exceptions import ParameterError


class TestParams:
    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"bandwidth_hz": 0.0}, "bandwidth_hz"),
            ({"signal_power": -1.0}, "signal_power"),
            ({"noise_power": 0.0}, "noise_power"),
            ({"ici_power": -0.1}, "ici_power"),
            ({"alpha": 0.0}, "alpha"),
            ({"alpha": 1.5}, "alpha"),
            ({"symbol_duration": 0.0}, "symbol_duration"),
        ],
    )
    def test_invalid_fields_named(self, kwargs, field):
        base = dict(bandwidth_hz=1e9, signal_power=1.0, noise_power=1.0)
        base.update(kwargs)
        with pytest.raises(ParameterError, match=field):
            CapacityParams(**base)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field",
        ["bandwidth_hz", "signal_power", "noise_power", "ici_power", "alpha",
         "symbol_duration", "n", "r"],
    )
    def test_non_finite_inputs_named(self, field, value):
        with pytest.raises(ParameterError, match=f"^{field} must"):
            if field in ("n", "r"):
                log_sphere_volume(**{"n": 3, "r": 1.0, field: value})
            else:
                base = dict(bandwidth_hz=1e9, signal_power=1.0, noise_power=1.0)
                CapacityParams(**{**base, field: value})


class TestShannonLimit:
    def test_unit_snr(self):
        p = CapacityParams(bandwidth_hz=1e6, signal_power=1.0, noise_power=1.0)
        assert shannon_limit(p) == pytest.approx(1e6)

    def test_snr_three_gives_two_bits(self):
        p = CapacityParams(bandwidth_hz=5e5, signal_power=3.0, noise_power=1.0)
        assert shannon_limit(p) == pytest.approx(1e6)

    def test_zero_signal_power(self):
        p = CapacityParams(bandwidth_hz=1e6, signal_power=0.0, noise_power=1.0)
        assert shannon_limit(p) == 0.0


class TestSphereVolume:
    def test_low_dimensions_closed_form(self):
        assert sphere_volume(1, 2.0) == pytest.approx(4.0)
        assert sphere_volume(2, 1.0) == pytest.approx(math.pi)
        assert sphere_volume(3, 1.0) == pytest.approx(4.0 * math.pi / 3.0)

    def test_log_matches_direct(self):
        for n, r in [(2, 0.5), (5, 3.0), (10, 1.0)]:
            assert log_sphere_volume(n, r) == pytest.approx(
                math.log(sphere_volume(n, r)), rel=1e-12
            )

    def test_huge_dimension_no_overflow(self):
        # 2WT/alpha at communication scale; direct Gamma evaluation would
        # overflow long before this.
        logv = log_sphere_volume(100_000, 10.0)
        assert math.isfinite(logv)

    def test_unit_radius_volume_vanishes_at_high_dimension(self):
        assert sphere_volume(10_000, 1.0) == 0.0

    def test_volume_past_the_float_range_is_inf(self):
        assert math.isfinite(log_sphere_volume(2, 1e200))
        assert sphere_volume(2, 1e200) == math.inf

    def test_zero_radius(self):
        assert sphere_volume(7, 0.0) == 0.0

    def test_errors(self):
        with pytest.raises(ParameterError):
            log_sphere_volume(0, 1.0)
        with pytest.raises(ParameterError):
            log_sphere_volume(4, -1.0)


class TestDistinguishableSignals:
    def test_matches_sphere_ratio_in_low_dimension(self):
        # log2 M = WT/alpha * log2(1 + S/N) equals the log-ratio of the
        # (signal+noise) sphere to the noise sphere in 2WT/alpha dimensions.
        w, t, alpha, s, n0 = 3.0, 1.0, 1.0, 4.0, 1.0
        p = CapacityParams(
            bandwidth_hz=w, signal_power=s, noise_power=n0,
            alpha=alpha, symbol_duration=t,
        )
        dims = int(2 * w * t / alpha)
        ratio = (
            log_sphere_volume(dims, math.sqrt(dims * (s + n0)))
            - log_sphere_volume(dims, math.sqrt(dims * n0))
        ) / math.log(2.0)
        assert distinguishable_signals(p) == pytest.approx(ratio, rel=1e-12)

    def test_compression_multiplies_exponent(self):
        base = dict(bandwidth_hz=1e9, signal_power=10.0, noise_power=1.0,
                    symbol_duration=1e-6)
        full = distinguishable_signals(CapacityParams(**base, alpha=1.0))
        compressed = distinguishable_signals(CapacityParams(**base, alpha=0.8))
        assert compressed == pytest.approx(full / 0.8, rel=1e-12)


class TestFtnCapacity:
    def test_reduces_to_shannon_at_alpha_one(self):
        p = CapacityParams(bandwidth_hz=4e9, signal_power=9.0, noise_power=1.0)
        assert capacity_ftn(p) == pytest.approx(shannon_limit(p), rel=1e-15)

    def test_alpha_08_no_ici_gain_is_exactly_125_percent(self):
        base = dict(bandwidth_hz=4e9, signal_power=9.0, noise_power=1.0)
        shannon = shannon_limit(CapacityParams(**base))
        ftn = capacity_ftn(CapacityParams(**base, alpha=0.8))
        assert ftn / shannon == pytest.approx(1.25, abs=1e-15)

    def test_ici_erodes_the_gain(self):
        base = dict(bandwidth_hz=4e9, signal_power=9.0, noise_power=1.0, alpha=0.8)
        clean = capacity_ftn(CapacityParams(**base))
        dirty = capacity_ftn(CapacityParams(**base, ici_power=2.0))
        assert dirty < clean

    def test_gain_monotone_in_compression(self):
        base = dict(bandwidth_hz=1e9, signal_power=5.0, noise_power=1.0)
        caps = [capacity_ftn(CapacityParams(**base, alpha=a))
                for a in (1.0, 0.9, 0.8, 0.7)]
        assert caps == sorted(caps)

    def test_heavy_ici_can_fall_below_shannon(self):
        base = dict(bandwidth_hz=1e9, signal_power=5.0, noise_power=1.0)
        shannon = shannon_limit(CapacityParams(**base))
        dirty = capacity_ftn(CapacityParams(**base, alpha=0.8, ici_power=10.0))
        assert dirty < shannon

"""Capacity bounds, the sphere-packing count, and compressed-spacing gain."""

import math

import pytest

from ftnlab.capacity import (
    CapacityParams,
    capacity_ftn,
    distinguishable_signals,
    shannon_limit,
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
         "symbol_duration"],
    )
    def test_non_finite_inputs_named(self, field, value):
        base = dict(bandwidth_hz=1e9, signal_power=1.0, noise_power=1.0)
        with pytest.raises(ParameterError, match=f"^{field} must"):
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


class TestDistinguishableSignals:
    def test_matches_sphere_ratio_in_low_dimension(self):
        # log2 M = WT/alpha * log2(1 + S/N) equals the log-ratio of the
        # (signal+noise) sphere to the noise sphere in 2WT/alpha dimensions.
        # At equal dimension the pi and Gamma terms of the two volumes
        # cancel, leaving dims * ln(r1 / r2).
        w, t, alpha, s, n0 = 3.0, 1.0, 1.0, 4.0, 1.0
        p = CapacityParams(
            bandwidth_hz=w, signal_power=s, noise_power=n0,
            alpha=alpha, symbol_duration=t,
        )
        dims = int(2 * w * t / alpha)
        r1, r2 = math.sqrt(dims * (s + n0)), math.sqrt(dims * n0)
        ratio = dims * math.log(r1 / r2) / math.log(2.0)
        assert distinguishable_signals(p) == pytest.approx(ratio, rel=1e-12)

    @pytest.mark.parametrize("w,t,alpha,s,n0", [
        (1.0, 1.0, 1.0, 1.0, 1.0), (2.5, 1.0, 1.0, 0.5, 2.0), (5.0, 2.0, 0.5, 9.0, 0.25),
    ])
    def test_matches_sphere_ratio_over_dimensions(self, w, t, alpha, s, n0):
        # 2, 5 and 40 dimensions.
        p = CapacityParams(bandwidth_hz=w, signal_power=s, noise_power=n0,
                           alpha=alpha, symbol_duration=t)
        dims = 2 * w * t / alpha
        ratio = dims * math.log(math.sqrt(dims * (s + n0)) / math.sqrt(dims * n0))
        assert distinguishable_signals(p) == pytest.approx(ratio / math.log(2.0), rel=1e-12)

    def test_communication_scale_stays_finite(self):
        # 2WT/alpha = 4e9 dimensions: the count itself, 2**(log2 M), overflows.
        p = CapacityParams(bandwidth_hz=1e9, signal_power=10.0, noise_power=1.0,
                           alpha=0.5, symbol_duration=1.0)
        bits = distinguishable_signals(p)
        assert math.isfinite(bits) and bits > 1024
        assert bits == pytest.approx(2e9 * math.log2(11.0), rel=1e-12)

    def test_zero_signal_power_leaves_one_signal(self):
        # Equal spheres: the volume ratio is 1.
        p = CapacityParams(bandwidth_hz=1e9, signal_power=0.0, noise_power=1.0,
                           symbol_duration=1e-6)
        assert distinguishable_signals(p) == 0.0

    def test_ici_counts_as_noise(self):
        base = dict(bandwidth_hz=1e9, signal_power=10.0, alpha=0.8, symbol_duration=1e-6)
        with_ici = CapacityParams(**base, noise_power=1.0, ici_power=2.0)
        assert distinguishable_signals(with_ici) == distinguishable_signals(
            CapacityParams(**base, noise_power=3.0)
        )

    def test_exponent_grows_with_duration(self):
        base = dict(bandwidth_hz=1e9, signal_power=10.0, noise_power=1.0, alpha=0.8)
        short = distinguishable_signals(CapacityParams(**base, symbol_duration=1e-6))
        long = distinguishable_signals(CapacityParams(**base, symbol_duration=2e-6))
        assert long == pytest.approx(2.0 * short, rel=1e-12)

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

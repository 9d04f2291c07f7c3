"""AWGN channel calibration against the antipodal-signaling bound."""

import numpy as np
import pytest
from scipy.special import erfc

from ftnlab.channel import AwgnSpec, apply_awgn, measure_sample_energy, noise_sigma
from ftnlab.exceptions import ParameterError
from ftnlab.modem import (
    ModemConfig, pam_index, random_data_bits, receive, transmit,
)
from ftnlab.transforms import TransformKind


def qfunc(x):
    return 0.5 * erfc(x / np.sqrt(2.0))


class TestSampleEnergy:
    def test_zero_stream(self):
        assert measure_sample_energy(np.zeros(100)) == 0.0

    def test_constant_stream(self):
        assert measure_sample_energy(np.full(50, 3.0)) == pytest.approx(9.0)

    def test_unit_energy_through_orthonormal_kernel(self):
        cfg = ModemConfig(n=64, alpha=1.0, data_symbols_per_frame=64,
                          training_symbols=0, sync_symbols=0)
        rng = np.random.default_rng(0)
        samples = transmit(cfg, random_data_bits(cfg, rng, 1))
        assert measure_sample_energy(samples) == pytest.approx(1.0, rel=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            measure_sample_energy(np.array([]))


class TestApplyAwgn:
    def test_noiseless_limit(self):
        x = np.linspace(-1, 1, 1000)
        spec = AwgnSpec(eb_n0_db=200.0, bits_per_sample=1.0, rng_seed=1)
        y = apply_awgn(spec, x)
        assert np.max(np.abs(y - x)) < 1e-8 * np.max(np.abs(x))

    def test_deterministic_per_seed(self):
        x = np.ones(512)
        spec = AwgnSpec(eb_n0_db=5.0, bits_per_sample=1.0, rng_seed=42)
        assert np.array_equal(apply_awgn(spec, x), apply_awgn(spec, x))

    def test_noise_follows_c_order(self):
        x = np.random.default_rng(6).normal(size=(4, 8, 16))
        spec = AwgnSpec(eb_n0_db=5.0, bits_per_sample=1.0, rng_seed=42)
        assert np.array_equal(apply_awgn(spec, x).ravel(), apply_awgn(spec, x.ravel()))

    def test_different_seeds_differ(self):
        x = np.ones(512)
        a = apply_awgn(AwgnSpec(eb_n0_db=5.0, bits_per_sample=1.0, rng_seed=1), x)
        b = apply_awgn(AwgnSpec(eb_n0_db=5.0, bits_per_sample=1.0, rng_seed=2), x)
        assert not np.array_equal(a, b)

    def test_empty_rejected(self):
        spec = AwgnSpec(eb_n0_db=5.0, bits_per_sample=1.0)
        with pytest.raises(ParameterError):
            apply_awgn(spec, np.array([]))

    def test_bits_per_sample_positive(self):
        with pytest.raises(ParameterError, match="bits_per_sample"):
            AwgnSpec(eb_n0_db=5.0, bits_per_sample=0.0)

    @pytest.mark.parametrize(
        "kwargs,field",
        [({"rng_seed": -1}, "rng_seed"), ({"rng_seed": "x"}, "rng_seed"),
         ({"rng_seed": 1.5}, "rng_seed"), ({"rng_seed": True}, "rng_seed"),
         ({"rng_seed": None}, "rng_seed"), ({"bits_per_sample": float("inf")}, "bits_per_sample"),
         ({"bits_per_sample": float("nan")}, "bits_per_sample")],
    )
    def test_seed_and_density_checked(self, kwargs, field):
        with pytest.raises(ParameterError, match=field):
            AwgnSpec(**{"eb_n0_db": 5.0, "bits_per_sample": 1.0, **kwargs})
        # A SeedSequence is a valid seed, as the sweep passes one per batch.
        AwgnSpec(eb_n0_db=5.0, bits_per_sample=1.0, rng_seed=np.random.SeedSequence(3))

    @pytest.mark.parametrize("eb_n0_db", [float("nan"), float("inf"), -float("inf")])
    def test_eb_n0_finite(self, eb_n0_db):
        with pytest.raises(ParameterError, match="eb_n0_db"):
            AwgnSpec(eb_n0_db=eb_n0_db, bits_per_sample=1.0)

    def test_noise_variance_matches_derivation(self):
        n = 2_000_000
        x = np.ones(n)
        spec = AwgnSpec(eb_n0_db=3.0, bits_per_sample=1.0, rng_seed=3)
        sigma = noise_sigma(spec, 1.0)
        noise = apply_awgn(spec, x) - x
        assert np.var(noise) == pytest.approx(sigma**2, rel=0.01)

    @pytest.mark.parametrize("in_place", [False, True])
    def test_scratch_holds_the_added_noise(self, in_place):
        # A sweep demultiplexes the noise `scratch` holds on return, so it is
        # the noise in `out`, for a new `out` and for `out=samples` alike.
        x = np.random.default_rng(7).normal(size=(3, 5, 20))
        spec = AwgnSpec(eb_n0_db=3.0, bits_per_sample=0.9, rng_seed=8)
        samples, scratch = x.copy(), np.empty_like(x)
        out = apply_awgn(spec, samples, out=samples if in_place else None, scratch=scratch)
        assert (out is samples) == in_place
        assert np.array_equal(out, x + scratch)
        assert np.allclose(out - x, scratch, rtol=0, atol=1e-15 * np.abs(out).max())
        assert np.array_equal(out, apply_awgn(spec, x))

    def test_noise_independent_of_signal(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=500_000)
        spec = AwgnSpec(eb_n0_db=0.0, bits_per_sample=1.0, rng_seed=5)
        noise = apply_awgn(spec, x) - x
        rho = np.corrcoef(x, noise)[0, 1]
        assert abs(rho) < 3.0 / np.sqrt(x.size)


class TestBerCalibration:
    @pytest.mark.parametrize("ebn0_db,total_bits", [(4.0, 400_000), (6.0, 800_000)])
    def test_orthogonal_hard_decision_matches_qfunction(self, ebn0_db, total_bits):
        cfg = ModemConfig(n=256, alpha=1.0, kind=TransformKind.FRCT,
                          data_symbols_per_frame=64, training_symbols=0, sync_symbols=0)
        rng = np.random.default_rng(int(ebn0_db))
        errors = 0
        bits_done = 0
        frame_bits = cfg.data_symbols_per_frame * cfg.n
        while bits_done < total_bits:
            bits = random_data_bits(cfg, rng, 1)
            spec = AwgnSpec(eb_n0_db=ebn0_db, bits_per_sample=1.0,
                            rng_seed=np.random.SeedSequence([17, bits_done]))
            rx = receive(cfg, apply_awgn(spec, transmit(cfg, bits)))
            errors += np.sum(pam_index(rx).ravel() != bits.ravel())
            bits_done += frame_bits
        gamma = 10 ** (ebn0_db / 10)
        assert errors / bits_done == pytest.approx(qfunc(np.sqrt(2 * gamma)), rel=0.10)

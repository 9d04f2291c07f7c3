"""AWGN channel: the data-domain noise and its calibration against the
antipodal-signaling bound."""

import numpy as np
import pytest
from scipy.special import erfc

from ftnlab.channel import AwgnSpec, apply_awgn, noise_sigma
from ftnlab.exceptions import ParameterError
from ftnlab.icimodel import correlation_matrix
from ftnlab.modem import (
    ModemConfig, expected_sample_energy, pam_index, pam_map, random_data_bits, transmit,
)
from ftnlab.transforms import TransformKind, demultiplex, make_plan
from timedomain import measure_sample_energy, receive


def qfunc(x):
    return 0.5 * erfc(x / np.sqrt(2.0))


PLAN = make_plan(TransformKind.FRCT, 16, 0.8)


class TestSampleEnergyOracle:
    def test_zero_stream(self):
        assert measure_sample_energy(np.zeros(100)) == 0.0

    def test_constant_stream(self):
        assert measure_sample_energy(np.full(50, 3.0)) == pytest.approx(9.0)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            measure_sample_energy(np.array([]))


class TestApplyAwgn:
    def test_noiseless_limit(self):
        spec = AwgnSpec(eb_n0_db=200.0, bits_per_sample=1.0, rng_seed=1)
        assert np.max(np.abs(apply_awgn(spec, 1.0, PLAN, 50))) < 1e-8

    def test_deterministic_per_seed(self):
        spec = AwgnSpec(eb_n0_db=5.0, bits_per_sample=1.0, rng_seed=42)
        assert np.array_equal(apply_awgn(spec, 1.0, PLAN, 32), apply_awgn(spec, 1.0, PLAN, 32))

    def test_noise_follows_c_order(self):
        # Fewer rows get the first rows of the same draw.
        spec = AwgnSpec(eb_n0_db=5.0, bits_per_sample=1.0, rng_seed=42)
        few, many = np.empty((3, 16)), np.empty((8, 16))
        apply_awgn(spec, 1.0, PLAN, 3, scratch=few)
        apply_awgn(spec, 1.0, PLAN, 8, scratch=many)
        assert np.array_equal(few, many[:3])

    def test_different_seeds_differ(self):
        a = apply_awgn(AwgnSpec(eb_n0_db=5.0, bits_per_sample=1.0, rng_seed=1), 1.0, PLAN, 8)
        b = apply_awgn(AwgnSpec(eb_n0_db=5.0, bits_per_sample=1.0, rng_seed=2), 1.0, PLAN, 8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("rows", [0, -1, 2.5, True])
    def test_row_count_checked(self, rows):
        spec = AwgnSpec(eb_n0_db=5.0, bits_per_sample=1.0)
        with pytest.raises(ParameterError, match="^rows must be an integer >= 1"):
            apply_awgn(spec, 1.0, PLAN, rows)

    @pytest.mark.parametrize("energy", [0.0, -1.0, float("nan"), "1"])
    def test_sample_energy_checked(self, energy):
        spec = AwgnSpec(eb_n0_db=5.0, bits_per_sample=1.0)
        with pytest.raises(ParameterError, match="^sample_energy must be"):
            apply_awgn(spec, energy, PLAN, 4)

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
        # White samples of variance sigma^2, and rows whose entry k has
        # variance sigma^2 C_kk after the demultiplexer.
        spec = AwgnSpec(eb_n0_db=3.0, bits_per_sample=0.9, rng_seed=3)
        sigma = noise_sigma(spec, 1.3)
        white = np.empty((100_000, 16))
        rows = apply_awgn(spec, 1.3, PLAN, len(white), scratch=white)
        assert np.var(white) == pytest.approx(sigma**2, rel=0.01)
        c = correlation_matrix(TransformKind.FRCT, 16, 0.8).entries
        np.testing.assert_allclose(np.var(rows, axis=0), sigma**2 * np.diag(c), rtol=0.03)

    def test_scratch_holds_the_white_noise(self):
        # `out` is the white noise in `scratch`, demultiplexed, and that
        # noise is normal(0, sigma) in C order.
        spec = AwgnSpec(eb_n0_db=3.0, bits_per_sample=0.9, rng_seed=8)
        sigma = noise_sigma(spec, 0.7)
        scratch = np.empty((5, 16))
        out = apply_awgn(spec, 0.7, PLAN, 5, scratch=scratch)
        assert np.array_equal(scratch, np.random.default_rng(8).normal(0.0, sigma, (5, 16)))
        assert np.array_equal(out, demultiplex(PLAN, scratch))


class TestTimeDomainAgreement:
    @pytest.mark.parametrize("kind,alpha,cp_len,pilots", [
        (TransformKind.FRCT, 0.8, 4, (1, 2)), (TransformKind.FRHT, 0.45, 0, (0, 0)),
    ])
    def test_noise_on_the_data_bodies_is_the_noise_rows(self, kind, alpha, cp_len, pilots):
        # The white noise placed on the bodies of the data blocks of a
        # waveform reaches the received rows as apply_awgn's rows; noise on
        # the pilots and prefixes reaches none.
        config = ModemConfig(n=16, alpha=alpha, kind=kind, cp_len=cp_len,
                             data_symbols_per_frame=5, sync_symbols=pilots[0],
                             training_symbols=pilots[1])
        spec = AwgnSpec(eb_n0_db=4.0, bits_per_sample=1.0, rng_seed=4)
        white = np.empty((3 * 5, 16))
        rows = apply_awgn(spec, 1.0, make_plan(kind, 16, alpha), 15, scratch=white)
        blocks = np.random.default_rng(5).normal(size=(3, config.symbols_per_frame, cp_len + 16))
        noisy = blocks.copy()
        noisy[:, sum(pilots):, cp_len:] += white.reshape(3, 5, 16)
        np.testing.assert_allclose(receive(config, noisy) - receive(config, blocks),
                                   rows.reshape(3, 5, 16), rtol=0, atol=1e-12)


class TestBerCalibration:
    @pytest.mark.parametrize("ebn0_db,total_bits", [(4.0, 400_000), (6.0, 800_000)])
    def test_orthogonal_hard_decision_matches_qfunction(self, ebn0_db, total_bits):
        cfg = ModemConfig(n=256, alpha=1.0, kind=TransformKind.FRCT,
                          data_symbols_per_frame=64, training_symbols=0, sync_symbols=0)
        plan = make_plan(cfg.kind, cfg.n, cfg.alpha)
        energy = expected_sample_energy(cfg)
        rng = np.random.default_rng(int(ebn0_db))
        errors = 0
        bits_done = 0
        frame_bits = cfg.data_symbols_per_frame * cfg.n
        while bits_done < total_bits:
            bits = random_data_bits(cfg, rng, 1)
            spec = AwgnSpec(eb_n0_db=ebn0_db, bits_per_sample=1.0,
                            rng_seed=np.random.SeedSequence([17, bits_done]))
            rows = pam_map(bits) + apply_awgn(spec, energy, plan, 64).ravel()
            errors += np.sum(pam_index(rows) != bits.ravel())
            bits_done += frame_bits
        gamma = 10 ** (ebn0_db / 10)
        assert errors / bits_done == pytest.approx(qfunc(np.sqrt(2 * gamma)), rel=0.10)

    def test_orthonormal_energy_is_the_measured_energy(self):
        cfg = ModemConfig(n=64, alpha=1.0, data_symbols_per_frame=64,
                          training_symbols=0, sync_symbols=0)
        samples = transmit(cfg, random_data_bits(cfg, np.random.default_rng(0), 1))
        assert measure_sample_energy(samples) == pytest.approx(1.0, rel=1e-10)
        assert expected_sample_energy(cfg) == pytest.approx(1.0, rel=1e-12)

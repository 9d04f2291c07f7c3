"""AWGN channel: the data-domain noise and its calibration against the
antipodal-signaling bound."""

import re

import numpy as np
import pytest
from scipy.special import erfc

from ftnlab.channel import apply_awgn, noise_sigma
from ftnlab.exceptions import ParameterError
from ftnlab.icimodel import correlation_matrix
from ftnlab.modem import (
    ModemConfig, expected_sample_energy, experiment_baseline, pam_index, pam_map,
    random_data_bits, transmit,
)
from ftnlab.transforms import TransformKind, demultiplex, make_plan
from timedomain import measure_sample_energy, receive


def qfunc(x):
    return 0.5 * erfc(x / np.sqrt(2.0))


PLAN = make_plan(TransformKind.FRCT, 16, 0.8)
# A layout of PLAN's transform.
CONFIG = ModemConfig(n=16, alpha=0.8, data_symbols_per_frame=4, training_symbols=2,
                     sync_symbols=1)


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
        sigma = noise_sigma(200.0, CONFIG)
        assert np.max(np.abs(sigma * apply_awgn(1, PLAN, 50))) < 1e-8

    def test_deterministic_per_seed(self):
        assert np.array_equal(apply_awgn(42, PLAN, 32), apply_awgn(42, PLAN, 32))

    def test_noise_follows_c_order(self):
        # Fewer rows get the first rows of the same draw.
        few, many = np.empty((3, 16), np.float32), np.empty((8, 16), np.float32)
        apply_awgn(42, PLAN, 3, scratch=few)
        apply_awgn(42, PLAN, 8, scratch=many)
        assert np.array_equal(few, many[:3])

    def test_different_seeds_differ(self):
        assert not np.array_equal(apply_awgn(1, PLAN, 8), apply_awgn(2, PLAN, 8))

    @pytest.mark.parametrize("rows", [0, -1, 2.5, True])
    def test_row_count_checked(self, rows):
        with pytest.raises(ParameterError, match="^rows must be an integer >= 1"):
            apply_awgn(0, PLAN, rows)

    @pytest.mark.parametrize("plan", ["x", None, CONFIG], ids=["str", "None", "config"])
    def test_plan_checked(self, plan):
        with pytest.raises(ParameterError, match="^plan must be a TransformPlan, got "):
            apply_awgn(0, plan, 3)

    @pytest.mark.parametrize("alpha", [0.8, 1.0])
    def test_rows_too_many_to_allocate_named(self, alpha):
        # 10**15 rows of 4 samples ask for petabytes, which numpy refuses
        # before touching a page, on either path (W K below alpha = 1, W at 1).
        message = "^rows = 1000000000000000 asks for more memory than can be allocated: "
        with pytest.raises(ParameterError, match=message):
            apply_awgn(0, make_plan(TransformKind.FRCT, 4, alpha), 10**15)

    @pytest.mark.parametrize("config", [None, 1.0, {"n": 16}, PLAN],
                             ids=["None", "float", "dict", "plan"])
    def test_config_checked(self, config):
        with pytest.raises(ParameterError, match="^config must be a ModemConfig, got "):
            noise_sigma(6.0, config)

    def test_layout_without_data_rows_rejected(self):
        # No bits: sigma would divide by zero.
        config = ModemConfig(n=16, data_symbols_per_frame=0)
        with pytest.raises(ParameterError, match="^data_symbols_per_frame must be an integer >= 1"):
            noise_sigma(5.0, config)

    @pytest.mark.parametrize("rng_seed", [-1, "x", 1.5, True, None])
    def test_seed_checked(self, rng_seed):
        with pytest.raises(ParameterError, match="^rng_seed must be"):
            apply_awgn(rng_seed, PLAN, 4)
        # A SeedSequence is a valid seed, as the sweep passes one per batch.
        apply_awgn(np.random.SeedSequence(3), PLAN, 4)

    @pytest.mark.parametrize("eb_n0_db", [float("nan"), float("inf"), -float("inf"),
                                          4000.0, -3300.0, np.nextafter(300.0, 301.0)])
    def test_eb_n0_finite(self, eb_n0_db):
        # Out of [-300, 300] dB, out as far as 10^(Eb/N0 / 10) overflowing or
        # sigma dividing by zero, is refused naming the field.
        with pytest.raises(ParameterError,
                           match=re.escape(f"eb_n0_db must lie in [-300, 300], got {eb_n0_db!r}")):
            noise_sigma(eb_n0_db, CONFIG)

    @pytest.mark.parametrize("eb_n0_db", [-300, 300.0])
    @pytest.mark.parametrize("config", [
        # About 5e-6 bits per sample: one data row of N = 2 among 10^5 pilots,
        # all with a prefix as long as the block.
        ModemConfig(n=2, cp_len=2, data_symbols_per_frame=1, training_symbols=100_000,
                    sync_symbols=0),
        # One bit per sample, orthonormal.
        ModemConfig(n=16, alpha=1.0, data_symbols_per_frame=1, training_symbols=0,
                    sync_symbols=0),
        experiment_baseline(n=1024),
    ], ids=["sparse", "dense", "baseline-1024"])
    def test_eb_n0_range_ends_give_finite_noise(self, eb_n0_db, config):
        # At either end sigma is finite and nonzero for any valid layout, and
        # so are its float32 rows, the sweep's noise through its float32 plan.
        sigma = noise_sigma(eb_n0_db, config)
        assert 0.0 < sigma < np.inf
        plan = make_plan(config.kind, config.n, config.alpha, np.float32)
        noise = sigma * apply_awgn(1, plan, 8)
        assert noise.dtype == np.float32 and np.isfinite(noise).all()

    @pytest.mark.parametrize("config", [
        ModemConfig(n=16, alpha=1.0, data_symbols_per_frame=1, training_symbols=0,
                    sync_symbols=0),
        CONFIG,
        experiment_baseline(),
    ], ids=["orthonormal", "pilots", "baseline"])
    def test_sigma_is_the_layout_law(self, config):
        # sigma^2 = E_s / (2 (Eb/N0) bits_per_sample), bits_per_sample being
        # the data bits of a frame over its samples, prefixes included.
        density = (config.data_symbols_per_frame * config.n
                   / (config.symbols_per_frame * (config.n + config.cp_len)))
        for eb_n0_db in (-3.0, 4.0, 12.5):
            gamma = 10.0 ** (eb_n0_db / 10.0)
            want = expected_sample_energy(config) / (2.0 * gamma * density)
            assert noise_sigma(eb_n0_db, config) ** 2 == pytest.approx(want, rel=1e-12)

    def test_noise_variance_matches_derivation(self):
        # White samples of unit variance, and rows whose entry k has
        # variance C_kk after the demultiplexer.
        white = np.empty((100_000, 16), np.float32)
        rows = apply_awgn(3, PLAN, len(white), scratch=white)
        assert np.var(white) == pytest.approx(1.0, rel=0.01)
        c = correlation_matrix(TransformKind.FRCT, 16, 0.8).entries
        np.testing.assert_allclose(np.var(rows, axis=0), np.diag(c), rtol=0.03)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_scratch_holds_the_white_noise(self, dtype):
        # `out` is the white noise in `scratch`, demultiplexed in the plan's
        # precision, and that noise is float32 standard normal in C order.
        plan = make_plan(TransformKind.FRCT, 16, 0.8, dtype)
        scratch = np.empty((5, 16), np.float32)
        out = apply_awgn(8, plan, 5, scratch=scratch)
        assert np.array_equal(scratch,
                              np.random.default_rng(8).standard_normal((5, 16), np.float32))
        assert out.dtype == dtype
        assert out.tobytes() == demultiplex(plan, scratch).tobytes()


class TestOrthonormalNoise:
    """At alpha = 1 the kernel is orthonormal, W K has the law of W, and
    `apply_awgn` returns W as drawn; below it, W K."""

    @pytest.mark.parametrize("buffers", [False, True], ids=["allocating", "out"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [2, 3, 16, 256])
    @pytest.mark.parametrize("kind", list(TransformKind))
    def test_alpha_one_is_the_draw(self, kind, n, dtype, buffers):
        plan = make_plan(kind, n, 1.0, dtype)
        white = np.random.default_rng(6).standard_normal((5, n), np.float32)
        if buffers:
            out = np.full((5, n), np.nan, dtype)
            scratch = np.full((5, n), np.nan, np.float32)
            assert apply_awgn(6, plan, 5, out=out, scratch=scratch) is out
            assert np.isnan(scratch).all()  # checked, not written
        else:
            out = apply_awgn(6, plan, 5)
        assert out.dtype == dtype
        assert out.tobytes() == white.astype(dtype).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", list(TransformKind))
    def test_below_one_is_demultiplexed(self, kind, dtype):
        plan = make_plan(kind, 16, 0.999, dtype)
        white = np.random.default_rng(6).standard_normal((5, 16), np.float32)
        assert apply_awgn(6, plan, 5).tobytes() == demultiplex(plan, white).tobytes()

    @pytest.mark.parametrize("kind", list(TransformKind))
    def test_alpha_one_law_is_white(self, kind):
        # The rows' covariance, and that of the time-domain rows (the same
        # white noise on the data bodies, received), is the identity within
        # sampling error, and C = cov(W K) is the identity to far below
        # float32 resolution.
        n, frames, data_rows = 16, 10_000, 10
        config = ModemConfig(n=n, alpha=1.0, kind=kind, data_symbols_per_frame=data_rows,
                             training_symbols=0, sync_symbols=0)
        c = correlation_matrix(kind, n, 1.0).entries
        assert n * np.abs(c - np.eye(n)).max() < 2.0**-26
        rows = apply_awgn(2, make_plan(kind, n, 1.0, np.float32), frames * data_rows)
        blocks = rows.astype(np.float64).reshape(frames, data_rows, n)
        received = receive(config, blocks).reshape(rows.shape)
        # Entries of a sample covariance of m white rows have a standard
        # error of at most sqrt(2 / m).
        bound = 5.0 * np.sqrt(2.0 / len(rows))
        for noise in (rows, received):
            np.testing.assert_allclose(np.cov(noise, rowvar=False), np.eye(n), rtol=0,
                                       atol=bound)


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
        white = np.empty((3 * 5, 16), np.float32)
        rows = apply_awgn(4, make_plan(kind, 16, alpha), 15, scratch=white)
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
        sigma = noise_sigma(ebn0_db, cfg)
        rng = np.random.default_rng(int(ebn0_db))
        errors = 0
        bits_done = 0
        frame_bits = cfg.data_symbols_per_frame * cfg.n
        while bits_done < total_bits:
            bits = random_data_bits(cfg, rng, 1)
            noise = apply_awgn(np.random.SeedSequence([17, bits_done]), plan, 64)
            rows = pam_map(bits) + sigma * noise.ravel()
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

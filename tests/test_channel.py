"""AWGN channel: the data-domain noise and its calibration against the
antipodal-signaling bound."""

import re

import numpy as np
import pytest
from scipy.special import erfc

from ftnlab.channel import apply_awgn, expected_sample_energy, noise_sigma
from ftnlab.exceptions import ParameterError
from ftnlab.icimodel import correlation_matrix
from ftnlab.modem import (
    ModemConfig, experiment_baseline, pam_index, pam_map, random_data_bits, transmit,
)
from ftnlab.transforms import TransformKind, demultiplex, make_plan
from timedomain import measure_sample_energy, receive


def qfunc(x):
    return 0.5 * erfc(x / np.sqrt(2.0))


PLAN = make_plan(TransformKind.FRCT, 16, 0.8, np.float32)
# A layout of PLAN's transform.
CONFIG = ModemConfig(n=16, alpha=0.8, data_symbols_per_frame=4, training_symbols=2,
                     sync_symbols=1)
# Its mean squared sample, which sets sigma.
ENERGY = expected_sample_energy(CONFIG, correlation_matrix(TransformKind.FRCT, 16, 0.8))


def _c(config):
    """The correlation matrix C of the layout `config`."""
    return correlation_matrix(config.kind, config.n, config.alpha)


def _energy(config):
    """The mean squared sample of the layout `config`, from its C."""
    return expected_sample_energy(config, _c(config))


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
        sigma = noise_sigma(200.0, CONFIG, ENERGY)
        assert np.max(np.abs(sigma * apply_awgn(np.random.SeedSequence(1), PLAN, 50))) < 1e-8

    def test_deterministic_per_seed(self):
        first, again = (apply_awgn(np.random.SeedSequence(42), PLAN, 32) for _ in range(2))
        assert np.array_equal(first, again)

    def test_noise_follows_c_order(self):
        # Fewer rows get the first rows of the same draw.
        few, many = np.empty((3, 16), np.float32), np.empty((8, 16), np.float32)
        apply_awgn(np.random.SeedSequence(42), PLAN, 3, scratch=few)
        apply_awgn(np.random.SeedSequence(42), PLAN, 8, scratch=many)
        assert np.array_equal(few, many[:3])

    def test_different_seeds_differ(self):
        one, two = (apply_awgn(np.random.SeedSequence(seed), PLAN, 8) for seed in (1, 2))
        assert not np.array_equal(one, two)

    @pytest.mark.parametrize("rows", [0, -1, 2.5, True])
    def test_row_count_checked(self, rows):
        with pytest.raises(ParameterError, match="^rows must be an integer >= 1"):
            apply_awgn(np.random.SeedSequence(0), PLAN, rows)

    @pytest.mark.parametrize("plan,message", [
        ("x", "plan must be a TransformPlan, got str"),
        (None, "plan must be a TransformPlan, got NoneType"),
        (CONFIG, "plan must be a TransformPlan, got ModemConfig"),
        # The noise is float32 through a float32 plan, as the sweep forms it.
        (make_plan(TransformKind.FRCT, 16, 0.8),
         "plan must be a float32 plan, got a float64 plan"),
        # Also at alpha = 1, whose draw never reads the plan's kernel.
        (make_plan(TransformKind.FRHT, 16, 1.0),
         "plan must be a float32 plan, got a float64 plan"),
    ], ids=["str", "None", "config", "float64", "float64-alpha1"])
    def test_plan_checked(self, plan, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            apply_awgn(np.random.SeedSequence(0), plan, 3)

    @pytest.mark.parametrize("alpha", [0.8, 1.0])
    def test_rows_too_many_to_allocate_named(self, alpha):
        # 10**15 rows of 4 samples ask for petabytes, which numpy refuses
        # before touching a page, on either path (W K below alpha = 1, W at 1).
        message = "^rows = 1000000000000000 asks for more memory than can be allocated: "
        plan = make_plan(TransformKind.FRCT, 4, alpha, np.float32)
        with pytest.raises(ParameterError, match=message):
            apply_awgn(np.random.SeedSequence(0), plan, 10**15)

    @pytest.mark.parametrize("config", [None, 1.0, {"n": 16}, PLAN],
                             ids=["None", "float", "dict", "plan"])
    def test_config_checked(self, config):
        with pytest.raises(ParameterError, match="^config must be a ModemConfig, got "):
            noise_sigma(6.0, config, ENERGY)

    def test_layout_without_data_rows_rejected(self):
        # No bits: sigma would divide by zero.
        config = ModemConfig(n=16, data_symbols_per_frame=0)
        with pytest.raises(ParameterError, match="^data_symbols_per_frame must be an integer >= 1"):
            noise_sigma(5.0, config, _energy(config))

    @pytest.mark.parametrize("rng_seed", [-1, "x", 1.5, True, None, 3, np.int64(3),
                                          np.random.default_rng(3)])
    def test_seed_checked(self, rng_seed):
        # An integer or a Generator, even one numpy would take, is refused by
        # its type.
        with pytest.raises(ParameterError, match="^rng_seed must be a SeedSequence, got "):
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
            noise_sigma(eb_n0_db, CONFIG, ENERGY)

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
        sigma = noise_sigma(eb_n0_db, config, _energy(config))
        assert 0.0 < sigma < np.inf
        plan = make_plan(config.kind, config.n, config.alpha, np.float32)
        noise = sigma * apply_awgn(np.random.SeedSequence(1), plan, 8)
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
        energy = _energy(config)
        for eb_n0_db in (-3.0, 4.0, 12.5):
            gamma = 10.0 ** (eb_n0_db / 10.0)
            want = energy / (2.0 * gamma * density)
            assert noise_sigma(eb_n0_db, config, energy) ** 2 == pytest.approx(want, rel=1e-12)

    def test_noise_variance_matches_derivation(self):
        # White samples of unit variance, and rows whose entry k has
        # variance C_kk after the demultiplexer.
        white = np.empty((100_000, 16), np.float32)
        rows = apply_awgn(np.random.SeedSequence(3), PLAN, len(white), scratch=white)
        assert np.var(white) == pytest.approx(1.0, rel=0.01)
        c = correlation_matrix(TransformKind.FRCT, 16, 0.8).entries
        np.testing.assert_allclose(np.var(rows, axis=0), np.diag(c), rtol=0.03)

    def test_scratch_holds_the_white_noise(self):
        # `out` is the white noise in `scratch`, demultiplexed in float32,
        # and that noise is float32 standard normal in C order, the stream
        # of numpy's seed 8.
        scratch = np.empty((5, 16), np.float32)
        out = apply_awgn(np.random.SeedSequence(8), PLAN, 5, scratch=scratch)
        assert np.array_equal(scratch,
                              np.random.default_rng(8).standard_normal((5, 16), np.float32))
        assert out.dtype == np.float32
        assert out.tobytes() == demultiplex(PLAN, scratch).tobytes()


class TestOrthonormalNoise:
    """At alpha = 1 the kernel is orthonormal, W K has the law of W, and
    `apply_awgn` returns W as drawn; below it, W K."""

    @pytest.mark.parametrize("buffers", [False, True], ids=["allocating", "out"])
    @pytest.mark.parametrize("n", [2, 3, 16, 256])
    @pytest.mark.parametrize("kind", list(TransformKind))
    def test_alpha_one_is_the_draw(self, kind, n, buffers):
        plan = make_plan(kind, n, 1.0, np.float32)
        white = np.random.default_rng(6).standard_normal((5, n), np.float32)
        if buffers:
            out = np.full((5, n), np.nan, np.float32)
            scratch = np.full((5, n), np.nan, np.float32)
            assert apply_awgn(np.random.SeedSequence(6), plan, 5, out=out, scratch=scratch) is out
            assert np.isnan(scratch).all()  # checked, not written
        else:
            out = apply_awgn(np.random.SeedSequence(6), plan, 5)
        assert out.dtype == np.float32
        assert out.tobytes() == white.tobytes()

    @pytest.mark.parametrize("kind", list(TransformKind))
    def test_below_one_is_demultiplexed(self, kind):
        plan = make_plan(kind, 16, 0.999, np.float32)
        white = np.random.default_rng(6).standard_normal((5, 16), np.float32)
        rows = apply_awgn(np.random.SeedSequence(6), plan, 5)
        assert rows.tobytes() == demultiplex(plan, white).tobytes()

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
        rows = apply_awgn(np.random.SeedSequence(2), make_plan(kind, n, 1.0, np.float32),
                          frames * data_rows)
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
        # waveform reaches the received rows as its demultiplexed rows, the
        # rows apply_awgn returns in float32; noise on the pilots and
        # prefixes reaches none.
        config = ModemConfig(n=16, alpha=alpha, kind=kind, cp_len=cp_len,
                             data_symbols_per_frame=5, sync_symbols=pilots[0],
                             training_symbols=pilots[1])
        white = np.empty((3 * 5, 16), np.float32)
        narrow = make_plan(kind, 16, alpha, np.float32)
        rows = apply_awgn(np.random.SeedSequence(4), narrow, 15, scratch=white)
        assert rows.tobytes() == demultiplex(narrow, white).tobytes()
        blocks = np.random.default_rng(5).normal(size=(3, config.symbols_per_frame, cp_len + 16))
        noisy = blocks.copy()
        noisy[:, sum(pilots):, cp_len:] += white.reshape(3, 5, 16)
        exact = demultiplex(make_plan(kind, 16, alpha), white)
        np.testing.assert_allclose(receive(config, noisy) - receive(config, blocks),
                                   exact.reshape(3, 5, 16), rtol=0, atol=1e-12)


class TestBerCalibration:
    @pytest.mark.parametrize("ebn0_db,total_bits", [(4.0, 400_000), (6.0, 800_000)])
    def test_orthogonal_hard_decision_matches_qfunction(self, ebn0_db, total_bits):
        cfg = ModemConfig(n=256, alpha=1.0, kind=TransformKind.FRCT,
                          data_symbols_per_frame=64, training_symbols=0, sync_symbols=0)
        plan = make_plan(cfg.kind, cfg.n, cfg.alpha, np.float32)
        sigma = noise_sigma(ebn0_db, cfg, _energy(cfg))
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
        assert _energy(cfg) == pytest.approx(1.0, rel=1e-12)

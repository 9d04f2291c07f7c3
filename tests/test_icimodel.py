"""Correlation matrix, interference power, and mixture-PDF statistics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from ftnlab import records
from ftnlab.berlab import export_results
from ftnlab.exceptions import ParameterError
from ftnlab.icimodel import (
    IciPdfModel,
    correlation_matrix,
    correlation_row,
    fit_sigma_mle,
    ici_histogram,
    ici_power,
    ici_samples,
    ks_distance,
    mean_ici_power,
    mixture_pdf,
)
from ftnlab.modem import ModemConfig
from ftnlab.transforms import TransformKind, make_plan


class TestCorrelationMatrix:
    def test_identity_at_alpha_one(self):
        c = correlation_matrix(TransformKind.FRCT, 64, 1.0)
        assert np.max(np.abs(c.entries - np.eye(64))) < 1e-10

    def test_n2_entries(self):
        # Hand summation of the two-term cross-correlation at N=2, alpha=0.8:
        # C[0][1] = (1/sqrt(2)) * (cos(0.2*pi) + cos(0.6*pi)) = 1/(2*sqrt(2))
        c = correlation_matrix(TransformKind.FRCT, 2, 0.8)
        assert c.entries[0, 1] == pytest.approx(0.3535533905932738, abs=1e-12)
        assert c.entries[1, 1] == pytest.approx(0.75, abs=1e-12)
        assert c.entries[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_and_unit_dc_autocorrelation(self):
        for alpha in (1.0, 0.9, 0.7):
            c = correlation_matrix(TransformKind.FRCT, 32, alpha)
            assert np.array_equal(c.entries, c.entries.T)
            assert c.entries[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_center_row_peaks_at_neighbours(self):
        c = correlation_matrix(TransformKind.FRCT, 256, 0.8)
        row = np.abs(c.entries[:, 128])
        off = row.copy()
        off[128] = 0.0
        assert set(np.argsort(off)[-2:]) == {127, 129}
        # Interference decays with distance from the observed subcarrier.
        assert off[127] > off[120] > off[100]
        assert off[129] > off[136] > off[156]

    @pytest.mark.parametrize("n,alpha", [(1, 0.8), (8, 0.0), (8, 1.1)])
    def test_parameter_errors(self, n, alpha):
        with pytest.raises(ParameterError):
            correlation_matrix(TransformKind.FRCT, n, alpha)

    # The FrHT sums are singular where alpha*j/N is an integer: alpha = 1 at
    # j = N, and alpha = 0.8 at j = 5N/4 for N divisible by 4.  Their float
    # neighbours sit next to the singularity.
    CLOSED_FORM_ALPHAS = (1.0, 0.9, 0.8, 0.7, 0.5, 0.45, 0.35) + tuple(
        float(np.nextafter(a, to)) for a, to in ((1.0, 0.0), (0.8, 0.0), (0.8, 1.0))
    )

    @pytest.mark.parametrize("kind", list(TransformKind))
    @pytest.mark.parametrize("n", [2, 8, 64, 256, 1000, 1024])
    def test_closed_form_matches_kernel_product(self, kind, n):
        for alpha in self.CLOSED_FORM_ALPHAS:
            c = correlation_matrix(kind, n, alpha)
            plan = make_plan(kind, n, alpha)
            dev = np.max(np.abs(c.entries - plan.kernel.T @ plan.kernel))
            assert dev <= 1e-12, (alpha, dev)
            assert np.array_equal(c.entries, c.entries.T), alpha


class TestIciPower:
    def test_zero_at_alpha_one(self):
        c = correlation_matrix(TransformKind.FRCT, 16, 1.0)
        for k in range(16):
            assert ici_power(c, k) == pytest.approx(0.0, abs=1e-20)

    def test_n2_value(self):
        c = correlation_matrix(TransformKind.FRCT, 2, 0.8)
        assert ici_power(c, 0) == pytest.approx(0.125, abs=1e-12)

    def test_matches_monte_carlo_variance(self):
        # Variance of the center subcarrier's demodulated output around its
        # diagonal-gain term, for random +-1 frames through the transform pair.
        kind, n, alpha, k = TransformKind.FRCT, 256, 0.8, 128
        c = correlation_matrix(kind, n, alpha)
        plan = make_plan(kind, n, alpha)
        rng = np.random.default_rng(11)
        frames = 20_000
        sent = 2.0 * rng.integers(0, 2, size=(frames, n)) - 1.0
        received = (sent @ plan.kernel.T) @ plan.kernel
        residual = received[:, k] - c.entries[k, k] * sent[:, k]
        assert np.var(residual) == pytest.approx(ici_power(c, k), rel=0.05)

    def test_index_out_of_range(self):
        c = correlation_matrix(TransformKind.FRCT, 8, 0.8)
        with pytest.raises(ParameterError):
            ici_power(c, 8)

    @pytest.mark.parametrize("k", [2.5, -1, True, "3"])
    @pytest.mark.parametrize("func", [ici_power, correlation_row])
    def test_index_must_be_an_integer(self, func, k):
        c = correlation_matrix(TransformKind.FRCT, 8, 0.8)
        with pytest.raises(ParameterError, match="k must"):
            func(c, k)

    def test_numpy_integer_index(self):
        c = correlation_matrix(TransformKind.FRCT, 8, 0.8)
        assert ici_power(c, np.int64(3)) == ici_power(c, 3)

    @pytest.mark.parametrize("kind", list(TransformKind))
    def test_mean_matches_per_subcarrier_loop(self, kind):
        c = correlation_matrix(kind, 64, 0.7)
        loop = np.mean([ici_power(c, k) for k in range(c.n)])
        assert mean_ici_power(c) == pytest.approx(loop, rel=1e-12)

    def test_monotone_in_compression(self):
        means = [
            mean_ici_power(correlation_matrix(TransformKind.FRCT, 256, a))
            for a in (1.0, 0.9, 0.8, 0.7)
        ]
        assert means[0] < means[1] < means[2] < means[3]

    def test_cosine_kernel_beats_cas_kernel_at_equal_spacing(self):
        for a_cos, a_cas in ((0.9, 0.45), (0.8, 0.4), (0.7, 0.35)):
            cos_mean = mean_ici_power(correlation_matrix(TransformKind.FRCT, 256, a_cos))
            cas_mean = mean_ici_power(correlation_matrix(TransformKind.FRHT, 256, a_cas))
            assert cos_mean < cas_mean


class TestMixturePdf:
    def test_closed_form_at_zero(self):
        model = IciPdfModel(sigma=1.0)
        assert mixture_pdf(model, 0.0) == pytest.approx(0.24197072451914337, rel=1e-12)

    def test_symmetry(self):
        model = IciPdfModel(sigma=0.37)
        x = np.linspace(-3, 3, 101)
        assert_allclose(mixture_pdf(model, x), mixture_pdf(model, -x), atol=1e-15)

    def test_integrates_to_one(self):
        model = IciPdfModel(sigma=0.5)
        lo, hi = -6 * 0.5 - 1, 6 * 0.5 + 1
        total, _ = integrate.quad(lambda x: mixture_pdf(model, x), lo, hi)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_small_sigma_concentrates_at_levels(self):
        model = IciPdfModel(sigma=1e-3)
        for center in (-1.0, 1.0):
            mass, _ = integrate.quad(
                lambda x: mixture_pdf(model, x), center - 0.01, center + 0.01
            )
            assert mass == pytest.approx(0.5, abs=1e-6)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ParameterError, match="sigma"):
            IciPdfModel(sigma=0.0)

    @pytest.mark.parametrize(
        "call,field",
        [(lambda: IciPdfModel(sigma=np.inf), "sigma"),
         (lambda: IciPdfModel(sigma=np.nan), "sigma"),
         (lambda: fit_sigma_mle([np.nan]), "samples"),
         (lambda: fit_sigma_mle([0.9, -np.inf, 1.1]), "samples")],
    )
    def test_non_finite_inputs_named(self, call, field):
        with pytest.raises(ParameterError, match=f"^{field} must be .*finite"):
            call()


class TestIciHistogram:
    def test_orthogonal_case_is_two_spikes(self):
        cfg = ModemConfig(n=32, alpha=1.0, training_symbols=0, sync_symbols=0)
        hist = ici_histogram(ici_samples(cfg, frames=64, rng_seed=1)[0])
        populated = hist.bin_centers[hist.density > 0]
        # All mass sits in the bins touching -1 and +1.
        assert np.all(np.abs(np.abs(populated) - 1.0) <= 0.021)
        assert np.sum(hist.density) * 0.02 == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        cfg = ModemConfig(n=32, alpha=0.8)
        a = ici_histogram(ici_samples(cfg, frames=32, rng_seed=9)[0])
        b = ici_histogram(ici_samples(cfg, frames=32, rng_seed=9)[0])
        assert np.array_equal(a.density, b.density)

    def test_zero_frames_rejected(self):
        cfg = ModemConfig(n=32, alpha=0.8)
        with pytest.raises(ParameterError, match="frames"):
            ici_samples(cfg, frames=0, rng_seed=1)

    @pytest.mark.parametrize("values", [[], [0.5, np.nan], [np.inf]])
    def test_bins_only_finite_samples(self, values):
        with pytest.raises(ParameterError, match="^values must be nonempty and finite"):
            ici_histogram(values)

    def test_bins_the_samples_it_is_given(self):
        hist = ici_histogram([-1.0, -1.0, 0.005, 1.99, 2.5])
        assert hist.sample_count == 5
        counts = np.rint(hist.density * 5 * 0.02).astype(int)
        assert counts.sum() == 4  # 2.5 lies outside [-2, 2] but counts in the total
        assert counts[np.searchsorted(hist.bin_edges, -1.0, side="right") - 1] == 2
        assert counts[100] == 1 and counts[-1] == 1

    @pytest.mark.parametrize(
        "kwargs,field",
        [({"frames": 2.5}, "frames"), ({"frames": True}, "frames"),
         ({"rng_seed": -1}, "rng_seed"), ({"rng_seed": 0.5}, "rng_seed")],
    )
    def test_count_and_seed_must_be_integers(self, kwargs, field):
        cfg = ModemConfig(n=32, alpha=0.8)
        with pytest.raises(ParameterError, match=field):
            ici_samples(cfg, **{"frames": 4, "rng_seed": 1, **kwargs})

    def test_interference_is_zero_mean(self):
        cfg = ModemConfig(n=64, alpha=0.8)
        _, residuals = ici_samples(cfg, frames=512, rng_seed=2)
        assert abs(np.mean(residuals)) < 3.0 / np.sqrt(residuals.size)

    def test_mixture_fit_is_close_midscale(self):
        cfg = ModemConfig(n=64, alpha=0.8)
        values, _ = ici_samples(cfg, frames=1024, rng_seed=3)
        sigma = fit_sigma_mle(values)
        assert ks_distance(values, IciPdfModel(sigma=sigma)) < 0.05


class TestCsvExport:
    def test_histogram_csv(self, tmp_path):
        cfg = ModemConfig(n=32, alpha=0.9)
        hist = ici_histogram(ici_samples(cfg, frames=16, rng_seed=4)[0])
        path = tmp_path / "hist.csv"
        export_results(hist, path, format="csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_center,density"
        assert len(lines) == 1 + len(hist.bin_centers)

    def test_correlation_row_csv(self, tmp_path):
        c = correlation_matrix(TransformKind.FRCT, 16, 0.8)
        path = tmp_path / "row.csv"
        records.write_table(path, "csv", correlation_row(c, 8))
        lines = path.read_text().splitlines()
        assert lines[0] == "l,abs_C_l_k"
        assert len(lines) == 17
        assert float(lines[1 + 8].split(",")[1]) == pytest.approx(abs(c.entries[8, 8]))

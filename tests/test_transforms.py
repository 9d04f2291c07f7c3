"""Kernel construction and multiplex/demultiplex round trips."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ftnlab.exceptions import ParameterError, ShapeError
from ftnlab.icimodel import correlation_matrix
from ftnlab.modem import ModemConfig
from ftnlab.transforms import (
    TransformKind, _frct_kernel, _frht_kernel, demultiplex, kernel_rows, make_plan, multiplex,
)
from hostmemory import refused_outright


def _frct_reference(n, alpha):
    """The FrCT kernel formula as one allocating expression."""
    samp = np.arange(n)[:, None]
    sub = np.arange(n)[None, :]
    weight = np.where(sub == 0, 1.0 / np.sqrt(2.0), 1.0)
    return np.sqrt(2.0 / n) * weight * np.cos(
        np.pi * alpha * (2 * samp + 1) * sub / (2 * n)
    )


def _frht_reference(n, alpha):
    """The FrHT kernel formula as one allocating expression."""
    samp = np.arange(n)[:, None]
    sub = np.arange(n)[None, :]
    theta = 2.0 * np.pi * alpha * samp * sub / n
    return np.sqrt(1.0 / n) * (np.cos(theta) + np.sin(theta))


class TestMakePlan:
    def test_orthonormal_dct_case(self):
        plan = make_plan(TransformKind.FRCT, 4, 1.0)
        assert_allclose(plan.kernel.T @ plan.kernel, np.eye(4), atol=1e-12)

    def test_cosine_kernel_entry_n2(self):
        # Direct scalar evaluation of the kernel formula at n=0, k=1:
        # sqrt(2/2) * W_1 * cos(0.8*pi*1 / 4)
        plan = make_plan(TransformKind.FRCT, 2, 0.8)
        expected = math.sqrt(2.0 / 2.0) * 1.0 * math.cos(0.8 * math.pi * 1.0 / 4.0)
        assert plan.kernel[0, 1] == pytest.approx(expected, abs=1e-15)
        assert plan.kernel[0, 1] == pytest.approx(0.8090169943749475, abs=1e-12)
        # k=0 column carries the 1/sqrt(2) weight.
        assert plan.kernel[0, 0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    @pytest.mark.parametrize("n,alpha", [(0, 0.8), (1, 0.8), (-3, 0.8)])
    def test_bad_size(self, n, alpha):
        with pytest.raises(ParameterError, match="n"):
            make_plan(TransformKind.FRCT, n, alpha)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.3])
    def test_bad_alpha(self, alpha):
        with pytest.raises(ParameterError, match="alpha"):
            make_plan(TransformKind.FRCT, 8, alpha)

    def test_deterministic(self):
        a = make_plan(TransformKind.FRHT, 64, 0.45).kernel
        b = make_plan(TransformKind.FRHT, 64, 0.45).kernel
        assert np.array_equal(a, b)

    def test_kernel_is_readonly(self):
        plan = make_plan(TransformKind.FRCT, 8, 0.9)
        with pytest.raises(ValueError):
            plan.kernel[0, 0] = 0.0

    def test_numpy_scalar_arguments_give_int_and_float(self):
        plan = make_plan(TransformKind.FRCT, np.int64(16), np.float64(0.8))
        assert type(plan.n) is int and type(plan.alpha) is float
        with pytest.raises(ValueError):
            plan.kernel[0, 0] = 0.0

    def test_bad_kind(self):
        with pytest.raises(ParameterError, match="kind"):
            make_plan("FrCT", 8, 0.9)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_kernel_too_large_to_allocate_names_n(self, dtype):
        n = 10**6
        if not refused_outright(n * n * np.dtype(dtype).itemsize):
            pytest.skip("this host might grant the N x N kernel and then page it in")
        with pytest.raises(ParameterError, match=(
                "^n = 1000000 asks for more memory than can be allocated: Unable to allocate")):
            make_plan(TransformKind.FRCT, n, 0.8, dtype)


class TestKernelBuild:
    @pytest.mark.parametrize("kind", [TransformKind.FRCT, TransformKind.FRHT])
    @pytest.mark.parametrize("n", [2, 100, 1024, 3000])
    def test_plans_are_the_one_build_in_row_blocks(self, kind, n):
        # The plan's kernel is put together from row blocks (one block up to
        # N = 181, 10 rows a block at N = 3000), the bytes of the kernel
        # built whole; the float32 plan is that kernel rounded once.
        build = _frct_kernel if kind is TransformKind.FRCT else _frht_kernel
        whole = build(n, 0.8, 0, n)
        plan = make_plan(kind, n, 0.8)
        assert plan.dtype == np.float64 and plan.kernel.tobytes() == whole.tobytes()
        narrow = make_plan(kind, n, 0.8, np.float32)
        assert narrow.dtype == np.float32
        assert narrow.kernel.tobytes() == whole.astype(np.float32).tobytes()

    @pytest.mark.parametrize("alpha", [1.0, 0.8, 0.45])
    @pytest.mark.parametrize("n", [16, 256, 1024])
    @pytest.mark.parametrize("kind", [TransformKind.FRCT, TransformKind.FRHT])
    def test_kernel_rows_are_the_plans_rows(self, kind, n, alpha):
        # Any range is the plan's rows byte for byte: the empty one (a layout
        # without a prefix), one row, a prefix's tail, a range across row
        # blocks, and all rows.
        kernel = make_plan(kind, n, alpha).kernel
        for start, stop in [(n, n), (0, 0), (n - 1, n), (3, 4), (n - 16, n), (5, n - 3), (0, n)]:
            rows = kernel_rows(kind, n, alpha, start, stop)
            assert rows.dtype == np.float64 and rows.shape == (stop - start, n)
            assert rows.tobytes() == kernel[start:stop].tobytes()

    @pytest.mark.parametrize("dtype", [np.float16, np.int64, "float32", None])
    def test_plan_dtype_checked(self, dtype):
        with pytest.raises(ParameterError, match="^dtype must be numpy.float64 or numpy.float32"):
            make_plan(TransformKind.FRCT, 8, 0.9, dtype)

    def test_float32_plan_multiplexes_in_float32(self):
        plan = make_plan(TransformKind.FRCT, 16, 0.9, np.float32)
        v = np.random.default_rng(12).normal(size=(3, 16))
        assert multiplex(plan, v).dtype == demultiplex(plan, v).dtype == np.float32
        assert demultiplex(plan, v).tobytes() == (v.astype(np.float32) @ plan.kernel).tobytes()

    @pytest.mark.parametrize("alpha", [1.0, 0.8, 0.45, 0.1, np.float64(0.7)])
    @pytest.mark.parametrize("n", [2, 3, 16, 100, 256, 1024])
    @pytest.mark.parametrize(
        "build,reference", [(_frct_kernel, _frct_reference), (_frht_kernel, _frht_reference)]
    )
    def test_in_place_build_is_byte_identical(self, build, reference, n, alpha):
        kernel = build(n, alpha, 0, n)
        assert kernel.dtype == np.float64 and kernel.shape == (n, n)
        assert kernel.tobytes() == reference(n, alpha).tobytes()


class TestMultiplex:
    def test_dc_subcarrier_is_constant(self):
        n = 16
        plan = make_plan(TransformKind.FRCT, n, 1.0)
        e0 = np.zeros(n)
        e0[0] = 1.0
        assert_allclose(multiplex(plan, e0), np.full(n, 1.0 / math.sqrt(n)), atol=1e-14)

    def test_orthogonal_round_trip(self):
        plan = make_plan(TransformKind.FRCT, 4, 1.0)
        v = np.array([0.3, -1.2, 0.7, 2.5])
        assert_allclose(demultiplex(plan, multiplex(plan, v)), v, atol=1e-12)

    def test_matches_naive_double_loop(self):
        n, alpha = 8, 0.8
        plan = make_plan(TransformKind.FRCT, n, alpha)
        v = np.ones(n)
        naive = np.zeros(n)
        for samp in range(n):
            acc = 0.0
            for k in range(n):
                w = 1.0 / math.sqrt(2.0) if k == 0 else 1.0
                acc += w * v[k] * math.cos(math.pi * alpha * (2 * samp + 1) * k / (2 * n))
            naive[samp] = math.sqrt(2.0 / n) * acc
        assert_allclose(multiplex(plan, v), naive, atol=1e-13)

    def test_shape_mismatch(self):
        plan = make_plan(TransformKind.FRCT, 8, 0.9)
        with pytest.raises(ShapeError):
            multiplex(plan, np.zeros(7))
        with pytest.raises(ShapeError):
            demultiplex(plan, np.zeros(9))

    @pytest.mark.parametrize("use", [multiplex, demultiplex], ids=["multiplex", "demultiplex"])
    @pytest.mark.parametrize("plan,got", [(None, "NoneType"), (ModemConfig(n=8), "ModemConfig")],
                             ids=["None", "config"])
    def test_plan_checked(self, use, plan, got):
        with pytest.raises(ParameterError, match=f"^plan must be a TransformPlan, got {got}$"):
            use(plan, np.zeros(8))

    def test_zero_input(self):
        plan = make_plan(TransformKind.FRHT, 8, 0.4)
        assert np.all(demultiplex(plan, np.zeros(8)) == 0.0)

    def test_linearity(self):
        plan = make_plan(TransformKind.FRCT, 16, 0.7)
        rng = np.random.default_rng(3)
        u, v = rng.normal(size=16), rng.normal(size=16)
        a, b = 1.7, -0.4
        assert_allclose(
            multiplex(plan, a * u + b * v),
            a * multiplex(plan, u) + b * multiplex(plan, v),
            atol=1e-12,
        )

    def test_batch_rows_match_single(self):
        plan = make_plan(TransformKind.FRCT, 8, 0.8)
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(5, 8))
        batch = multiplex(plan, rows)
        for i in range(5):
            assert_allclose(batch[i], multiplex(plan, rows[i]), atol=0)


class TestInvariants:
    @pytest.mark.parametrize("kind", [TransformKind.FRCT, TransformKind.FRHT])
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256])
    def test_orthogonality_at_alpha_one(self, kind, n):
        plan = make_plan(kind, n, 1.0)
        dev = np.max(np.abs(plan.kernel.T @ plan.kernel - np.eye(n)))
        assert dev < 1e-10

    def test_parseval_at_alpha_one(self):
        rng = np.random.default_rng(5)
        for kind in TransformKind:
            plan = make_plan(kind, 64, 1.0)
            v = rng.normal(size=64)
            x = multiplex(plan, v)
            assert np.sum(x * x) == pytest.approx(np.sum(v * v), rel=1e-10)

    @pytest.mark.parametrize("kind", [TransformKind.FRCT, TransformKind.FRHT])
    @pytest.mark.parametrize("alpha", [1.0, 0.9, 0.8, 0.7])
    def test_round_trip_composes_to_correlation_matrix(self, kind, alpha):
        n = 32
        plan = make_plan(kind, n, alpha)
        c = correlation_matrix(kind, n, alpha)
        rng = np.random.default_rng(6)
        v = rng.normal(size=n)
        assert_allclose(
            demultiplex(plan, multiplex(plan, v)), c.entries @ v, atol=1e-10
        )

    def test_determinism_bit_identical(self):
        plan = make_plan(TransformKind.FRCT, 32, 0.8)
        v = np.linspace(-1, 1, 32)
        assert np.array_equal(multiplex(plan, v), multiplex(plan, v))


class TestSampleEnergyTerms:
    """The identities behind `channel.expected_sample_energy`'s closed form:
    the kernel rows' squares against the correlation matrix C = K^T K."""

    @pytest.mark.parametrize("kind", [TransformKind.FRCT, TransformKind.FRHT])
    @pytest.mark.parametrize("alpha", [1.0, 0.8, 0.45])
    @pytest.mark.parametrize("n", [16, 64])
    def test_kernel_power_sums_to_the_trace_of_c(self, kind, alpha, n):
        # sum_n (K K^T)[n, n] = trace(K^T K): a data block's N samples carry
        # the closed-form C's diagonal sum, which owes nothing to the kernel.
        rows = kernel_rows(kind, n, alpha, 0, n)
        assert np.sum(rows * rows) == pytest.approx(
            np.trace(correlation_matrix(kind, n, alpha).entries), rel=1e-10)

    @pytest.mark.parametrize("kind", [TransformKind.FRCT, TransformKind.FRHT])
    @pytest.mark.parametrize("n", [8, 64])
    def test_unit_row_power_at_alpha_one(self, kind, n):
        # An orthonormal square kernel has K K^T = I as well as K^T K = I.
        rows = kernel_rows(kind, n, 1.0, 0, n)
        assert_allclose(np.sum(rows * rows, axis=1), np.ones(n), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", [TransformKind.FRCT, TransformKind.FRHT])
    @pytest.mark.parametrize("n", [16, 257])
    def test_fixed_row_energy_is_its_quadratic_form_in_c(self, kind, n):
        # A pilot block of the fixed row p carries |K p|^2 = p C p^T, and its
        # prefix the squares of the last rows' samples.
        fixed = np.random.default_rng(10).normal(size=(3, n))
        samples = multiplex(make_plan(kind, n, 0.7), fixed)
        c = correlation_matrix(kind, n, 0.7).entries
        assert_allclose(np.sum(fixed @ c * fixed, axis=1), np.sum(samples * samples, axis=1),
                        rtol=1e-10, atol=0)
        tail = kernel_rows(kind, n, 0.7, n - 5, n)
        assert_allclose(np.square(fixed @ tail.T), np.square(samples[:, n - 5:]),
                        rtol=1e-9, atol=1e-12)

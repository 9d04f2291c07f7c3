"""The shared parameter checks, and the real-valued parameters and arrays
that use them."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ftnlab.berlab import BerSweepResult, SweepSpec, required_ebn0_at_ber, wilson_interval
from ftnlab.capacity import CapacityParams
from ftnlab.channel import expected_sample_energy, noise_sigma
from ftnlab.config import capacity_params
from ftnlab.equalize import IdConfig, id_equalize_frame
from ftnlab.exceptions import (
    ConfigError, ExportError, FramingError, ParameterError, ShapeError, allocating_for,
    check_keys, check_real, check_real_array, check_type,
)
from ftnlab.icimodel import (
    CorrelationMatrix, IciPdfModel, correlation_matrix, fit_sigma_mle, ici_histogram, ici_power,
    ks_distance, mixture_cdf, mixture_pdf,
)
from ftnlab.modem import ModemConfig, pam_index
from ftnlab.transforms import (
    TransformKind, TransformPlan, demultiplex, kernel_rows, make_plan, multiplex,
)

NOT_REAL = ["1", None, True, False, np.bool_(True), 1j, [0.5], np.array([0.5])]
NOT_FINITE = [math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("inf")]


def test_every_bad_input_is_a_parameter_error():
    # A caller catches one type for any bad argument; files have their own two.
    assert issubclass(ShapeError, ParameterError)
    assert issubclass(FramingError, ParameterError)
    assert not issubclass(ConfigError, ParameterError)
    assert not issubclass(ExportError, ParameterError)


@pytest.mark.parametrize("error,said", [
    (MemoryError("Unable to allocate 186. TiB"), "Unable to allocate 186. TiB"),
    (MemoryError(), "out of memory"),
    (ValueError("Maximum allowed dimension exceeded"), "Maximum allowed dimension exceeded"),
    (OverflowError("Python int too large to convert to C long"),
     "Python int too large to convert to C long"),
], ids=["numpy", "bare", "dimension", "overflow"])
def test_allocation_failure_names_the_field(error, said):
    with pytest.raises(ParameterError) as caught:
        with allocating_for(frames=10**11):
            raise error
    assert str(caught.value) == (
        f"frames = 100000000000 asks for more memory than can be allocated: {said}"
    )


@pytest.mark.parametrize("sizes,named", [
    (dict(frames_per_batch=4, data_symbols_per_frame=10**24, n=64),
     "data_symbols_per_frame = 1000000000000000000000000"),
    (dict(frames_per_batch=4, data_symbols_per_frame=16, n=10**30),
     "n = 1000000000000000000000000000000"),
    (dict(frames_per_batch=10**12, data_symbols_per_frame=16, n=64),
     "frames_per_batch = 1000000000000"),
    (dict(frames=64, data_symbols_per_frame=64, n=64), "frames = 64"),  # a tie: the first
], ids=["data_symbols_per_frame", "n", "frames_per_batch", "tie"])
def test_allocation_failure_names_the_largest_factor(sizes, named):
    with pytest.raises(ParameterError) as caught:
        with allocating_for(**sizes):
            raise ValueError("Maximum allowed dimension exceeded")
    assert str(caught.value) == (
        f"{named} asks for more memory than can be allocated: Maximum allowed dimension exceeded"
    )


def test_parameter_error_passes_allocating_for_unchanged():
    error = FramingError("data_bits must have shape (frames, 256)")
    with pytest.raises(FramingError) as caught:
        with allocating_for(frames=4):
            raise error
    assert caught.value is error


@pytest.mark.parametrize("given,message", [
    ({"a": 1, "x": 2, "w": 3}, "f.json: unknown key(s) ['w', 'x']"),
    ({"b": 1}, "f.json: missing required key(s) ['a']"),
    ({"b": 1, "z": 2}, "f.json: unknown key(s) ['z']"),  # unknown keys first
], ids=["unknown", "missing", "both"])
def test_check_keys_names_the_source_and_keys(given, message):
    with pytest.raises(ConfigError) as caught:
        check_keys("f.json", given, ["a"], ["b"])
    assert str(caught.value) == message


def test_check_keys_accepts_required_with_any_optional():
    check_keys("f.json", {"a": 1}, ["a"], ["b"])
    check_keys("f.json", {"a": 1, "b": 2}, ["a"], ["b"])


@pytest.mark.parametrize("value,cls,message", [
    ("FrCT", TransformKind, "kind must be a TransformKind, got str"),
    (None, IdConfig, "kind must be an IdConfig, got NoneType"),
    (TransformKind.FRCT, ModemConfig, "kind must be a ModemConfig, got TransformKind"),
], ids=["a", "an", "enum"])
def test_check_type_names_the_class_and_the_type_given(value, cls, message):
    with pytest.raises(ParameterError) as caught:
        check_type(value, cls, "kind")
    assert str(caught.value) == message


FRCT = TransformKind.FRCT


_LAYOUT = ModemConfig(n=4, alpha=0.8)


# A correlation matrix or a plan whose array does not fit its (kind, n,
# alpha) is refused when built, not left to build a detector of the wrong
# size or to fail in numpy later; so are a layout's C of another transform,
# a layout that is not a ModemConfig and a range of kernel rows outside the
# kernel.
@pytest.mark.parametrize("use,error,message", [
    (lambda: IdConfig(CorrelationMatrix(FRCT, 4, 0.8, np.zeros((3, 3)))), ShapeError,
     "entries must be a float64 array of shape (4, 4), got float64 (3, 3)"),
    (lambda: CorrelationMatrix(FRCT, 4, 0.8, np.eye(4).tolist()), ShapeError,
     "entries must be a float64 array of shape (4, 4), got list"),
    (lambda: ici_power(CorrelationMatrix(FRCT, 4, 0.8, np.eye(3)), 3), ShapeError,
     "entries must be a float64 array of shape (4, 4), got float64 (3, 3)"),
    (lambda: multiplex(TransformPlan(FRCT, 4, 0.8, np.eye(3)), np.ones(4)), ShapeError,
     "kernel must be a float64 or float32 array of shape (4, 4), got float64 (3, 3)"),
    (lambda: CorrelationMatrix(FRCT, 4, 0.8, np.eye(4, dtype=np.float32)), ShapeError,
     "entries must be a float64 array of shape (4, 4), got float32 (4, 4)"),
    (lambda: TransformPlan(FRCT, 4, 0.8, np.eye(4, dtype=np.int64)), ShapeError,
     "kernel must be a float64 or float32 array of shape (4, 4), got int64 (4, 4)"),
    (lambda: expected_sample_energy(_LAYOUT, np.eye(4)), ParameterError,
     "matrix must be a CorrelationMatrix, got ndarray"),
    (lambda: expected_sample_energy(_LAYOUT, None), ParameterError,
     "matrix must be a CorrelationMatrix, got NoneType"),
    (lambda: expected_sample_energy(_LAYOUT, correlation_matrix(TransformKind.FRHT, 4, 0.8)),
     ParameterError,
     "matrix must be C of the layout's ('FrCT', 4, 0.8), got C of ('FrHT', 4, 0.8)"),
    (lambda: expected_sample_energy(_LAYOUT, correlation_matrix(FRCT, 8, 0.8)), ParameterError,
     "matrix must be C of the layout's ('FrCT', 4, 0.8), got C of ('FrCT', 8, 0.8)"),
    (lambda: expected_sample_energy(_LAYOUT, correlation_matrix(FRCT, 4, 0.9)), ParameterError,
     "matrix must be C of the layout's ('FrCT', 4, 0.8), got C of ('FrCT', 4, 0.9)"),
    (lambda: expected_sample_energy(None, correlation_matrix(FRCT, 4, 0.8)), ParameterError,
     "config must be a ModemConfig, got NoneType"),
    (lambda: kernel_rows(FRCT, 4, 0.8, -1, 2), ParameterError,
     "start must be an integer >= 0, got -1"),
    (lambda: kernel_rows(FRCT, 4, 0.8, 1.0, 2), ParameterError,
     "start must be an integer >= 0, got 1.0"),
    (lambda: kernel_rows(FRCT, 4, 0.8, 3, 2), ParameterError,
     "stop must be an integer >= 3, got 2"),
    (lambda: kernel_rows(FRCT, 4, 0.8, 0, 5), ParameterError, "stop must lie in [0, 4], got 5"),
    (lambda: kernel_rows(FRCT, 4, 0.8, 0, None), ParameterError,
     "stop must be an integer >= 0, got None"),
], ids=["detector", "list", "ici_power", "multiplex", "entries-dtype", "kernel-dtype",
        "matrix-array", "matrix-none", "matrix-kind", "matrix-n", "matrix-alpha",
        "config-none", "start-negative", "start-float", "stop-before-start", "stop-past-n", "stop-none"])
def test_matrix_must_fit_its_transform(use, error, message):
    with pytest.raises(error) as caught:
        use()
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize("cls", [CorrelationMatrix, TransformPlan])
@pytest.mark.parametrize("kind,n,alpha,field", [
    (None, 4, 0.8, "kind"), (FRCT, 1, 0.8, "n"), (FRCT, 4, 1.5, "alpha"),
])
def test_matrix_transform_is_validated(cls, kind, n, alpha, field):
    with pytest.raises(ParameterError, match=f"^{field} must "):
        cls(kind, n, alpha, np.eye(4))


class TestCheckReal:
    @pytest.mark.parametrize(
        "value", [0.5, 1, Fraction(1, 2), np.float64(0.5), np.float32(0.5), np.int64(1),
                  np.float16(1.0)],
    )
    def test_real_numbers_pass(self, value):
        check_real(value, "x", 0, 1, "(]")

    @pytest.mark.parametrize("value", NOT_REAL + NOT_FINITE)
    def test_non_reals_and_non_finite_values_fail(self, value):
        with pytest.raises(ParameterError, match="^x must be finite, got "):
            check_real(value, "x")

    @pytest.mark.parametrize(
        "bounds,passing,failing",
        [
            ((0, 1, "(]"), [1, 1e-300], [0, -0.0, np.nextafter(1.0, 2.0)]),
            ((0, 1, "[)"), [0, -0.0, np.nextafter(1.0, 0.0)], [1, -1e-300]),
            ((0, 1, "()"), [0.5], [0, 1]),
            ((0, 10, "[]"), [0, 10], [-1, 11]),
            ((0, math.inf, "()"), [1e-300, 1e308], [0, math.inf]),
            ((0, math.inf, "[)"), [0, 1e308], [-1e-300, math.inf]),
        ],
    )
    def test_bounds_and_brackets(self, bounds, passing, failing):
        for value in passing:
            check_real(value, "x", *bounds)
        for value in failing:
            with pytest.raises(ParameterError):
                check_real(value, "x", *bounds)

    @pytest.mark.parametrize(
        "bounds,message",
        [
            ((), "x must be finite, got 'a'"),
            ((0,), "x must be finite and > 0, got 'a'"),
            ((1, math.inf, "[)"), "x must be finite and >= 1, got 'a'"),
            ((0, 1, "(]"), "x must lie in (0, 1], got 'a'"),
            ((0, 1, "[)"), "x must lie in [0, 1), got 'a'"),
        ],
        ids=["x-unbounded", "x-above-low", "x-from-low", "x-low-open-high-closed",
             "x-low-closed-high-open"],
    )
    def test_message_names_the_rule(self, bounds, message):
        with pytest.raises(ParameterError) as info:
            check_real("a", "x", *bounds)
        assert str(info.value) == message




def _sweep(**kwargs):
    return SweepSpec(config=ModemConfig(n=16), **{"alphas": (1.0,), "ebn0_dbs": (4.0,),
                                                   **kwargs})


# Each real-valued parameter: (field, a call that sets it to `value`, a valid
# value), with the name of the function or class that takes it as its id.
def _real(owner, field, call, valid):
    return pytest.param(field, call, valid, id=f"{owner}-{field}")


REAL_PARAMETERS = [
    _real("CapacityParams", "bandwidth_hz", lambda v: CapacityParams(v, 1, 1), 1e9),
    _real("CapacityParams", "signal_power", lambda v: CapacityParams(1, v, 1), 0.0),
    _real("CapacityParams", "noise_power", lambda v: CapacityParams(1, 1, v), 1),
    _real("CapacityParams", "ici_power", lambda v: CapacityParams(1, 1, 1, ici_power=v), 0),
    _real("CapacityParams", "alpha", lambda v: CapacityParams(1, 1, 1, alpha=v), 0.5),
    _real("CapacityParams", "symbol_duration",
          lambda v: CapacityParams(1, 1, 1, symbol_duration=v), 2.0),
    _real("noise_sigma", "eb_n0_db", lambda v: noise_sigma(v, ModemConfig(n=16), 1.0), -3.0),
    _real("noise_sigma", "energy", lambda v: noise_sigma(4.0, ModemConfig(n=16), v), 0.5),
    _real("ModemConfig", "alpha", lambda v: ModemConfig(alpha=v), 0.8),
    _real("IciPdfModel", "sigma", lambda v: IciPdfModel(sigma=v), 0.3),
    _real("SweepSpec", "alpha", lambda v: _sweep(alphas=(1.0, v)), 0.9),
    _real("SweepSpec", "ebn0_dbs", lambda v: _sweep(ebn0_dbs=(4.0, v)), -2),
    _real("required_ebn0_at_ber", "target_ber",
          lambda v: required_ebn0_at_ber(BerSweepResult(points=()), v), 3.8e-3),
    _real("wilson_interval", "bits", lambda v: wilson_interval(0, v), 10),
    _real("wilson_interval", "errors", lambda v: wilson_interval(v, 10), 3),
    _real("make_plan", "alpha", lambda v: make_plan(TransformKind.FRCT, 8, v), 0.9),
    _real("correlation_matrix", "alpha",
          lambda v: correlation_matrix(TransformKind.FRCT, 8, v), 0.9),
    _real("capacity_params", "snr_db", lambda v: capacity_params(snr_db=v), 10.0),
]


@pytest.mark.parametrize("field,call,valid", REAL_PARAMETERS)
class TestRealParameters:
    # check_real's verdict on each bad value is TestCheckReal's; here one
    # wrong-typed and one non-finite value show the parameter goes through it.
    @pytest.mark.parametrize("value", ["1", math.nan], ids=repr)
    def test_bad_value_names_field(self, field, call, valid, value):
        with pytest.raises(ParameterError, match=f"^{field} must "):
            call(value)

    def test_valid_value_and_its_numpy_scalar_pass(self, field, call, valid):
        call(valid)
        call(np.float64(valid))


_N = 8
_PLAN = make_plan(TransformKind.FRCT, _N, 0.9)
_ID = IdConfig(correlation_matrix(TransformKind.FRCT, _N, 0.9))
_MIXTURE = IciPdfModel(sigma=0.5)

# Each public function with a real-array argument: (its name, a call that
# passes `v`, a length-8 nesting or array, as that argument).
REAL_ARRAYS = {
    "multiplex": ("symbols", lambda v: multiplex(_PLAN, v)),
    "demultiplex": ("samples", lambda v: demultiplex(_PLAN, v)),
    "pam_index": ("values", pam_index),
    "id_equalize_frame": ("rows", lambda v: id_equalize_frame(_ID, [v], 2)),
    "mixture_pdf": ("x", lambda v: mixture_pdf(_MIXTURE, v)),
    "mixture_cdf": ("x", lambda v: mixture_cdf(_MIXTURE, v)),
    "fit_sigma_mle": ("samples", fit_sigma_mle),
    "ks_distance": ("samples", lambda v: ks_distance(v, _MIXTURE)),
    "ici_histogram": ("values", ici_histogram),
}

NOT_REAL_ARRAYS = {
    "complex": np.full(_N, 0.5 + 0.5j),
    "none": [None] * _N,
    "strings": ["0.5"] * _N,
    "ragged": [[0.5] * 4, [0.5] * 5],
    "objects": np.full(_N, 0.5, dtype=object),
}


@pytest.mark.filterwarnings("error")
class TestRealArrays:
    @pytest.mark.parametrize("kind", NOT_REAL_ARRAYS)
    @pytest.mark.parametrize("function", REAL_ARRAYS)
    def test_non_real_input_names_the_argument(self, function, kind):
        # Complex input is not truncated (no ComplexWarning), nor None made NaN.
        name, call = REAL_ARRAYS[function]
        with pytest.raises(ParameterError, match=f"^{name} must be real numbers"):
            call(NOT_REAL_ARRAYS[kind])

    @pytest.mark.parametrize("function", REAL_ARRAYS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, bool])
    def test_real_input_passes(self, function, dtype):
        REAL_ARRAYS[function][1](np.linspace(-1.0, 1.0, _N).astype(dtype))

    @pytest.mark.parametrize("function,name", [
        ("multiplex", "symbols"), ("demultiplex", "samples"),
    ])
    @pytest.mark.parametrize("value,got", [(np.float64(0.5), "no axis"), (np.zeros(_N - 1), _N - 1),
                                           (np.zeros((_N, 1)), 1)])
    def test_missing_or_wrong_last_axis(self, function, name, value, got):
        message = f"{name} last axis must have length {_N}, got {got}"
        with pytest.raises(ShapeError, match=f"^{message}$"):
            REAL_ARRAYS[function][1](value)

    @pytest.mark.parametrize("value", [np.float64(0.5), np.zeros(_N - 1), np.zeros((1, _N - 1))])
    def test_detector_shapes(self, value):
        with pytest.raises(ShapeError):
            id_equalize_frame(_ID, value, 2)

    def test_float64_input_is_not_copied(self):
        values = np.zeros((3, _N))
        assert check_real_array(values, "x") is values
        assert check_real_array(values[:, ::2], "x", _N // 2).base is values
        assert check_real_array([1, True], "x").dtype == np.float64

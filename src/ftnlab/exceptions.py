"""Exception types shared across the library, and the checks that raise
them: one per kind of parameter, such as every real-valued one."""

import math
from contextlib import contextmanager
from itertools import combinations
from numbers import Integral, Real

import numpy as np


class ParameterError(ValueError):
    """An argument violates its documented constraint; message names the field."""


class ShapeError(ParameterError):
    """Array dimensions do not match the operation's contract."""


class FramingError(ParameterError):
    """A bit vector or sample stream is inconsistent with the frame layout."""


class ConfigError(ValueError):
    """A configuration file is unreadable, malformed, or violates a constraint."""


class ExportError(OSError):
    """Reading or writing a file failed; message carries the path."""


def check_real(value, name, low=-math.inf, high=math.inf, closed="()"):
    """A real number (not a bool; numpy scalars pass) between `low` and `high`;
    `closed` holds the brackets, so "(]" means low < value <= high.  With
    infinite ends open, as they must be, NaN and +-inf never pass."""
    if (isinstance(value, Real) and not isinstance(value, bool)
            and (low <= value if closed[0] == "[" else low < value)
            and (value <= high if closed[1] == "]" else value < high)):
        return
    if high < math.inf:
        rule = f"lie in {closed[0]}{low}, {high}{closed[1]}"
    elif low > -math.inf:
        rule = f"be finite and {'>=' if closed[0] == '[' else '>'} {low}"
    else:
        rule = "be finite"
    raise ParameterError(f"{name} must {rule}, got {value!r}")


def check_alpha(alpha):
    """The spacing compression factor lies in (0, 1]."""
    check_real(alpha, "alpha", 0, 1, "(]")


def check_integer(value, name, minimum):
    """An integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_type(value, cls, name):
    """An instance of the class `cls`."""
    if not isinstance(value, cls):
        named = ("an " if cls.__name__[0] in "AEIOU" else "a ") + cls.__name__
        raise ParameterError(f"{name} must be {named}, got {type(value).__name__}")


def check_real_array(values, name, last_axis=None, floats=(np.float64,)):
    """`values`, real numbers in a rectangular nesting, as an array of one of
    the float dtypes `floats`: as it is if it has one (never a copy), else
    converted to the first; with `last_axis`, the last axis has that length."""
    try:
        values = np.asarray(values)
    except ValueError as exc:  # a ragged nesting
        raise ParameterError(f"{name} must be real numbers: {exc}") from None
    if values.dtype.kind not in "biuf":
        raise ParameterError(f"{name} must be real numbers, got dtype {values.dtype}")
    if last_axis is not None and values.shape[-1:] != (last_axis,):
        got = values.shape[-1] if values.ndim else "no axis"
        raise ShapeError(f"{name} last axis must have length {last_axis}, got {got}")
    return values if values.dtype in floats else values.astype(floats[0])


def check_array(buf, shape, dtypes, name):
    """An ndarray of exactly `shape` and one of the dtypes `dtypes`."""
    if not isinstance(buf, np.ndarray) or buf.shape != tuple(shape) or buf.dtype not in dtypes:
        got = f"{buf.dtype} {buf.shape}" if isinstance(buf, np.ndarray) else type(buf).__name__
        dtypes = " or ".join(str(np.dtype(dtype)) for dtype in dtypes)
        raise ShapeError(f"{name} must be a {dtypes} array of shape {tuple(shape)}, got {got}")


def check_buffer(buf, shape, dtype, name):
    """A caller's output or scratch array, if not None, is a writable,
    C-contiguous ndarray of exactly `shape` and `dtype`."""
    if buf is None:
        return
    check_array(buf, shape, (dtype,), name)
    if not buf.flags.writeable:
        raise ShapeError(f"{name} must be writable")
    if not buf.flags.c_contiguous:
        raise ShapeError(f"{name} must be C-contiguous")


def check_apart(**buffers):
    """No two of the named arrays (None skips one) may share memory: an O(1)
    bounds test, so two views that only interleave are refused too."""
    for (name, a), (other, b) in combinations(buffers.items(), 2):
        if a is not None and b is not None and np.may_share_memory(a, b):
            raise ParameterError(f"{name} and {other} must not share memory")


def check_keys(source, given, required, optional=()):
    """The keys `given` are every one of `required` and any of `optional`;
    else a ConfigError naming `source` and the unknown or missing keys."""
    unknown = sorted(set(given) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{source}: unknown key(s) {unknown}")
    missing = sorted(set(required) - set(given))
    if missing:
        raise ConfigError(f"{source}: missing required key(s) {missing}")


@contextmanager
def allocating_for(**sizes):
    """Allocations whose size the parameters `sizes`, given as name=value,
    set as factors: a MemoryError inside, or numpy's refusal of a size it
    cannot index (a ValueError or OverflowError), becomes a ParameterError
    naming the largest factor, which does most to set the size, and its
    value, followed by numpy's message.  A ParameterError passes unchanged."""
    try:
        yield
    except ParameterError:
        raise
    except (MemoryError, ValueError, OverflowError) as exc:
        name, value = max(sizes.items(), key=lambda size: size[1])
        raise ParameterError(
            f"{name} = {value!r} asks for more memory than can be allocated: "
            f"{str(exc) or 'out of memory'}"
        ) from None

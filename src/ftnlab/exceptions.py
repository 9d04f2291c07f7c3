"""Exception types shared across the library, and the checks that raise
them: one per kind of parameter, such as every real-valued one."""

import math
from numbers import Integral, Real

import numpy as np


class ParameterError(ValueError):
    """An argument violates its documented constraint; message names the field."""


class ShapeError(ValueError):
    """Array dimensions do not match the operation's contract."""


class FramingError(ValueError):
    """A bit vector or sample stream is inconsistent with the frame layout."""


class ConfigError(ValueError):
    """A configuration file is unreadable, malformed, or violates a constraint."""


class ExportError(OSError):
    """Result export/import failed; message carries the path."""


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


def check_power_of_two(value, name):
    if not isinstance(value, Integral) or value < 2 or value & (value - 1):
        raise ParameterError(f"{name} must be a power of two >= 2, got {value!r}")


def check_integer(value, name, minimum):
    """An integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_real_array(values, name, last_axis=None):
    """`values`, real numbers in a rectangular nesting, as float64 (never a
    copy of a float64 array); with `last_axis`, the last axis has that length."""
    try:
        values = np.asarray(values)
    except ValueError as exc:  # a ragged nesting
        raise ParameterError(f"{name} must be real numbers: {exc}") from None
    if values.dtype.kind not in "biuf":
        raise ParameterError(f"{name} must be real numbers, got dtype {values.dtype}")
    if last_axis is not None and values.shape[-1:] != (last_axis,):
        got = values.shape[-1] if values.ndim else "no axis"
        raise ShapeError(f"{name} last axis must have length {last_axis}, got {got}")
    return values.astype(np.float64, copy=False)


def check_buffer(buf, shape, dtype, name, contiguous=True):
    """A caller's output or scratch array, if not None, is a writable ndarray
    of exactly `shape` and `dtype`, C-contiguous unless `contiguous` is False."""
    if buf is None:
        return
    shape, dtype = tuple(shape), np.dtype(dtype)
    if not isinstance(buf, np.ndarray) or buf.shape != shape or buf.dtype != dtype:
        got = f"{buf.dtype} {buf.shape}" if isinstance(buf, np.ndarray) else type(buf).__name__
        raise ShapeError(f"{name} must be a {dtype} array of shape {shape}, got {got}")
    if not buf.flags.writeable:
        raise ShapeError(f"{name} must be writable")
    if contiguous and not buf.flags.c_contiguous:
        raise ShapeError(f"{name} must be C-contiguous")

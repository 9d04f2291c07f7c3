"""Exception types shared across the library, and the range checks that
raise them for parameters checked in more than one place."""

from numbers import Integral

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


def check_alpha(alpha):
    """The spacing compression factor lies in (0, 1]; NaN does not."""
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"alpha must lie in (0, 1], got {alpha!r}")


def check_power_of_two(value, name):
    if not isinstance(value, Integral) or value < 2 or value & (value - 1):
        raise ParameterError(f"{name} must be a power of two >= 2, got {value!r}")


def check_integer(value, name, minimum):
    """An integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")


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

"""Transmit/receive chain: PAM mapping, framing, cyclic prefix.

Frames carry three classes of multicarrier symbols in transmit order
sync | training | data.  Sync and training rows are fixed pseudo-random
outer-level patterns; the AWGN pipeline never uses them, but they are kept
in the frame so overhead/rate accounting matches a realistic link budget.
"""

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import (
    FramingError, ParameterError, check_buffer, check_integer, check_power_of_two, check_real,
)
from .transforms import TransformKind, demultiplex, make_plan, multiplex, validate_transform

# Entropy constant for the fixed sync/training patterns.
_PILOT_SEED = 0x0F7C


@dataclass(frozen=True)
class ModemConfig:
    n: int = 256
    alpha: float = 1.0
    kind: TransformKind = TransformKind.FRCT
    pam_order: int = 2
    cp_len: int = 0
    data_symbols_per_frame: int = 128
    training_symbols: int = 10
    sync_symbols: int = 1
    sample_rate: float = 10e9

    def __post_init__(self):
        validate_transform(self.kind, self.n, self.alpha)
        check_power_of_two(self.pam_order, "pam_order")
        for name in ("cp_len", "data_symbols_per_frame", "training_symbols", "sync_symbols"):
            check_integer(getattr(self, name), name, 0)
        if self.cp_len > self.n:
            raise ParameterError(f"cp_len must be <= n = {self.n}, got {self.cp_len!r}")
        if self.symbols_per_frame == 0:
            raise ParameterError(
                "sync_symbols + training_symbols + data_symbols_per_frame must be >= 1"
            )
        check_real(self.sample_rate, "sample_rate", 0)

    @property
    def symbols_per_frame(self):
        return self.sync_symbols + self.training_symbols + self.data_symbols_per_frame

    @property
    def bits_per_symbol(self):
        return self.n * int(np.log2(self.pam_order))

    @property
    def data_bits_per_frame(self):
        return self.data_symbols_per_frame * self.bits_per_symbol


def experiment_baseline(alpha=0.8, **overrides):
    """The experimental baseline layout: N=256, CP 16, 128 data + 10 training
    + 1 sync symbol per frame, 2-PAM at 10 GS/s."""
    return replace(ModemConfig(alpha=alpha, cp_len=16), **overrides)


# ---------------------------------------------------------------------------
# PAM mapping

def _pam_scale(m):
    # Unit average symbol energy over the uniform alphabet {+-1, +-3, ...}*scale.
    return np.sqrt(3.0 / (m * m - 1.0))


def pam_levels(m):
    """The normalized M-PAM alphabet in ascending order."""
    return (2.0 * np.arange(m) - (m - 1)) * _pam_scale(m)


def pam_map(bits, m, *, out=None):
    """Gray-mapped M-PAM with unit average symbol energy.

    For M=2 the alphabet is exactly {-1, +1} with 0 -> -1, 1 -> +1.
    Bits are grouped MSB-first into log2(M)-bit Gray labels, and each label
    is looked up in a table of the levels indexed by label.  `out`, if
    given, receives the levels: a C-contiguous float64 vector, one per label.
    """
    check_power_of_two(m, "m")
    bits = np.asarray(bits)
    k = int(np.log2(m))
    if bits.size % k:
        raise FramingError(
            f"bit count {bits.size} is not divisible by log2(m) = {k}"
        )
    _check_bits(bits)
    groups = bits.reshape(-1, k).astype(np.intp, copy=False)
    label = groups[:, 0]
    for j in range(1, k):
        label = (label << 1) | groups[:, j]
    # Level index i carries the Gray label i ^ (i >> 1).
    index = np.arange(m)
    table = np.empty(m)
    table[index ^ (index >> 1)] = pam_levels(m)
    check_buffer(out, label.shape, np.float64, "out")
    # Every label is in range, so "clip" only spares take() its buffered copy.
    return np.take(table, label, out=out, mode="clip")


def _check_bits(bits):
    """Every entry is 0 or 1: one min/max pass, and for floats an integrality pass."""
    if bits.dtype.kind == "b" or bits.size == 0:
        return
    if bits.dtype.kind in "iuf" and bits.min() >= 0 and bits.max() <= 1 and (
        bits.dtype.kind != "f" or np.all(bits == np.floor(bits))
    ):
        return
    bad = [b for b in bits.ravel().tolist() if b not in (0, 1)][:1] or [bits.dtype]
    raise ParameterError(f"bits must be 0 or 1, got {bad[0]!r}")


def pam_index(values, m, *, out=None, scratch=None):
    """Index of the nearest M-PAM level, ties toward the lower level.

    Clipped to [0, M-1] in float before the cast, so +-inf land on the outer
    levels (and NaN on level 0).  `out` (int64) receives the indices and
    `scratch` (float64, which may be `values` itself) the float work; both
    have the shape of `values`.  At M = 2 the decision is one comparison,
    `v > 2**-53`, and `scratch` is not used.
    """
    check_power_of_two(m, "m")
    try:
        values = np.asarray(values)
    except ValueError as exc:  # a ragged nesting
        raise ParameterError(f"values must be real numbers: {exc}") from None
    if values.dtype.kind not in "biuf":
        raise ParameterError(f"values must be real numbers, got dtype {values.dtype}")
    values = values.astype(np.float64, copy=False)
    check_buffer(out, values.shape, np.int64, "out", contiguous=False)
    check_buffer(scratch, values.shape, np.float64, "scratch", contiguous=False)
    if m == 2:
        # The formula below at M = 2 (scale 1): fl(1 + v) > 1 iff v > 2**-53,
        # since the tie at 2**-53 rounds to even; NaN, +-0 and -inf give 0.
        out = np.empty(values.shape, dtype=np.int64) if out is None else out
        return np.greater(values, 2.0**-53, out=out)
    # ceil((v / scale + M - 1) / 2 - 0.5), in place on one temporary.
    t = np.divide(values, _pam_scale(m), out=scratch)
    t += m - 1
    t /= 2.0
    t -= 0.5
    np.ceil(t, out=t)
    np.fmax(t, 0, out=t)
    np.fmin(t, m - 1, out=t)
    if out is None:
        return t.astype(np.int64)
    np.copyto(out, t, casting="unsafe")
    return out


def _check_indices(index, m):
    """Every entry is an integer in [0, m)."""
    if index.dtype.kind not in "iu":
        raise ParameterError(f"index must hold integers, got dtype {index.dtype}")
    if index.size and (index.min() < 0 or index.max() >= m):
        bad = index[(index < 0) | (index >= m)][0]
        raise ParameterError(f"index must lie in [0, {m}), got {int(bad)}")


def gray_demap(index, m, *, out=None):
    """Level indices back to bits: each index's Gray label, MSB first.

    The indices must be integers in [0, M) (`ParameterError` otherwise).
    For M=2 the label is the index, so the (raveled) indices are returned,
    unless `out` is given: a C-contiguous int64 vector of log2(M) entries
    per index, which receives the bits.
    """
    check_power_of_two(m, "m")
    k = int(np.log2(m))
    index = np.asarray(index).ravel()
    _check_indices(index, m)
    if k == 1 and out is None:
        return index
    check_buffer(out, (index.size * k,), np.int64, "out")
    out = np.empty(index.size * k, dtype=np.int64) if out is None else out
    bits = out.reshape(-1, k)
    # The last bit column holds the Gray labels until it takes its own bit.
    gray = bits[:, k - 1]
    np.right_shift(index, 1, out=gray)
    np.bitwise_xor(index, gray, out=gray)
    for j in range(k):
        np.right_shift(gray, k - 1 - j, out=bits[:, j])
        np.bitwise_and(bits[:, j], 1, out=bits[:, j])
    return out


# ---------------------------------------------------------------------------
# Frames

def pilot_rows(config):
    """The fixed sync and training rows (outer-level pseudo-random patterns)."""
    rng = np.random.default_rng(np.random.SeedSequence(_PILOT_SEED))
    outer = pam_levels(config.pam_order)[-1]
    signs = 2.0 * rng.integers(0, 2, size=(1 + 1, config.n)) - 1.0
    sync = np.tile(signs[0] * outer, (config.sync_symbols, 1))
    training = np.tile(signs[1] * outer, (config.training_symbols, 1))
    return sync, training


def random_data_bits(config, rng, frames):
    """Uniform data bits for `frames` frames, shape (frames, data_bits_per_frame)."""
    return rng.integers(0, 2, size=(frames, config.data_bits_per_frame))


def transmit(config, data_bits, *, out=None, rows=None):
    """Time-domain blocks of whole frames from (frames, data_bits_per_frame) bits.

    Each frame's rows sync | training | data are multiplexed in one product
    and get their cyclic prefix; returns (frames, symbols_per_frame,
    cp_len + n), whose ravel() is the serialized waveform.  `out` receives
    the blocks and `rows` the frequency-domain rows, (frames,
    symbols_per_frame, n); both are C-contiguous float64 arrays.
    """
    data_bits = np.asarray(data_bits)
    if data_bits.ndim != 2 or data_bits.shape[1] != config.data_bits_per_frame:
        raise FramingError(
            f"data_bits must have shape (frames, {config.data_bits_per_frame}) "
            f"for this layout, got {data_bits.shape}"
        )
    shape = (data_bits.shape[0], config.symbols_per_frame, config.n)
    blocks_shape = shape[:2] + (config.cp_len + config.n,)
    check_buffer(out, blocks_shape, np.float64, "out")
    check_buffer(rows, shape, np.float64, "rows")
    out = np.empty(blocks_shape) if out is None else out
    rows = np.empty(shape) if rows is None else rows
    sync, training = pilot_rows(config)
    first = len(sync) + len(training)
    rows[:, :len(sync)] = sync
    rows[:, len(sync):first] = training
    for frame, bits in zip(rows, data_bits):
        pam_map(bits, config.pam_order, out=frame[first:].reshape(-1))
    # The bodies go behind the prefixes, which then copy their tails.
    multiplex(make_plan(config.kind, config.n, config.alpha), rows, out=out[..., config.cp_len:])
    out[..., :config.cp_len] = out[..., config.n:]
    return out


def receive(config, samples, *, out=None):
    """Strip the cyclic prefixes of whole frames and demultiplex the data rows.

    `samples` may have any shape whose size is a whole number of frames (a
    raveled waveform or the blocks of `transmit`).  Returns raw
    frequency-domain rows (frames, data_symbols_per_frame, n), no
    equalization: for alpha < 1 each equals C @ (transmitted row) plus noise.
    `out`, if given, receives them (float64, as in `transforms.demultiplex`).
    """
    samples = np.asarray(samples, dtype=np.float64)
    block = config.cp_len + config.n
    layout = (
        f"frames of {config.symbols_per_frame} blocks of "
        f"cp_len + n = {config.cp_len} + {config.n} samples"
    )
    if samples.ndim > 1 and samples.shape[-1] != block:
        raise FramingError(f"block length {samples.shape[-1]} does not match {layout}")
    if samples.size == 0 or samples.size % (config.symbols_per_frame * block):
        raise FramingError(f"{samples.size} samples are not a whole number of {layout}")
    blocks = samples.reshape(-1, config.symbols_per_frame, block)
    data = blocks[:, config.sync_symbols + config.training_symbols:, config.cp_len:]
    return demultiplex(make_plan(config.kind, config.n, config.alpha), data, out=out)


# ---------------------------------------------------------------------------
# Rate accounting

@dataclass(frozen=True)
class RateReport:
    symbol_rate: float
    nyquist_rate: float
    baseband_bandwidth: float        # large-N approximation alpha * fs / 2
    baseband_bandwidth_exact: float  # (N-1)*alpha/(2T) + 1/T
    net_bit_rate: float


def rate_report(config):
    fs = config.sample_rate
    period = config.n / fs
    overhead = (config.n / (config.n + config.cp_len)) * (
        config.data_symbols_per_frame / config.symbols_per_frame
    )
    return RateReport(
        symbol_rate=fs,
        nyquist_rate=config.alpha * fs,
        baseband_bandwidth=config.alpha * fs / 2.0,
        baseband_bandwidth_exact=(config.n - 1) * config.alpha / (2.0 * period)
        + 1.0 / period,
        net_bit_rate=np.log2(config.pam_order) * fs * overhead,
    )

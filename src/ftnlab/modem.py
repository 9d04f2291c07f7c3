"""Transmit/receive chain: PAM mapping, framing, cyclic prefix, serialization.

Frames carry three classes of multicarrier symbols in transmit order
sync | training | data.  Sync and training rows are fixed pseudo-random
outer-level patterns; the AWGN pipeline never uses them, but they are kept
in the frame so overhead/rate accounting matches a realistic link budget.
"""

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import FramingError, ParameterError, ShapeError, check_power_of_two
from .transforms import TransformKind, make_plan, validate_size_alpha

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
        validate_size_alpha(self.n, self.alpha)
        check_power_of_two(self.pam_order, "pam_order")
        if self.cp_len < 0:
            raise ParameterError(f"cp_len must be >= 0, got {self.cp_len!r}")
        for name in ("data_symbols_per_frame", "training_symbols", "sync_symbols"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if not self.sample_rate > 0:
            raise ParameterError(f"sample_rate must be > 0, got {self.sample_rate!r}")

    @property
    def symbols_per_frame(self):
        return self.sync_symbols + self.training_symbols + self.data_symbols_per_frame

    @property
    def bits_per_symbol(self):
        return self.n * int(np.log2(self.pam_order))


def experiment_baseline(alpha=0.8, **overrides):
    """The experimental baseline layout: N=256, CP 16, 128 data + 10 training
    + 1 sync symbol per frame, 2-PAM at 10 GS/s."""
    cfg = ModemConfig(
        n=256,
        alpha=alpha,
        pam_order=2,
        cp_len=16,
        data_symbols_per_frame=128,
        training_symbols=10,
        sync_symbols=1,
        sample_rate=10e9,
    )
    return replace(cfg, **overrides) if overrides else cfg


# ---------------------------------------------------------------------------
# PAM mapping

def _pam_scale(m):
    # Unit average symbol energy over the uniform alphabet {+-1, +-3, ...}*scale.
    return np.sqrt(3.0 / (m * m - 1.0))


def pam_levels(m):
    """The normalized M-PAM alphabet in ascending order."""
    return (2.0 * np.arange(m) - (m - 1)) * _pam_scale(m)


def pam_map(bits, m):
    """Gray-mapped M-PAM with unit average symbol energy.

    For M=2 the alphabet is exactly {-1, +1} with 0 -> -1, 1 -> +1.
    Bits are grouped MSB-first into log2(M)-bit Gray labels.
    """
    check_power_of_two(m, "m")
    bits = np.asarray(bits, dtype=np.int64)
    k = int(np.log2(m))
    if bits.size % k:
        raise FramingError(
            f"bit count {bits.size} is not divisible by log2(m) = {k}"
        )
    groups = bits.reshape(-1, k)
    gray = np.zeros(groups.shape[0], dtype=np.int64)
    for j in range(k):
        gray = (gray << 1) | groups[:, j]
    # Gray label -> level index.
    index = gray.copy()
    shift = 1
    while shift < k:
        index ^= index >> shift
        shift <<= 1
    return (2.0 * index - (m - 1)) * _pam_scale(m)


def pam_demap(values, m):
    """Nearest-level hard decision with ties broken toward the lower level,
    followed by Gray de-mapping back to bits."""
    check_power_of_two(m, "m")
    values = np.asarray(values, dtype=np.float64)
    k = int(np.log2(m))
    t = (values / _pam_scale(m) + (m - 1)) / 2.0
    index = np.clip(np.ceil(t - 0.5).astype(np.int64), 0, m - 1)
    gray = index ^ (index >> 1)
    bits = np.empty((gray.size, k), dtype=np.int64)
    for j in range(k):
        bits[:, j] = (gray >> (k - 1 - j)) & 1
    return bits.ravel()


# ---------------------------------------------------------------------------
# Frames and sample streams

@dataclass(frozen=True)
class SymbolFrame:
    """Frequency-domain frame; each row is a length-N vector of PAM amplitudes."""

    sync: np.ndarray      # (sync_symbols, n)
    training: np.ndarray  # (training_symbols, n)
    data: np.ndarray      # (data_symbols_per_frame, n)

    @property
    def stacked(self):
        """All rows in transmit order sync | training | data."""
        return np.concatenate([self.sync, self.training, self.data], axis=0)


@dataclass(frozen=True)
class SampleStream:
    """Serialized real waveform; layout is consecutive (cp_len + n)-sample blocks."""

    samples: np.ndarray
    cp_len: int
    n: int

    def __post_init__(self):
        block = self.cp_len + self.n
        if self.samples.ndim != 1 or self.samples.size % block:
            raise FramingError(
                f"stream length {self.samples.size} is not a multiple of "
                f"block length {block}"
            )

    @property
    def n_blocks(self):
        return self.samples.size // (self.cp_len + self.n)


def pilot_rows(config):
    """The fixed sync and training rows (outer-level pseudo-random patterns)."""
    rng = np.random.default_rng(np.random.SeedSequence(_PILOT_SEED))
    outer = pam_levels(config.pam_order)[-1]
    signs = 2.0 * rng.integers(0, 2, size=(1 + 1, config.n)) - 1.0
    sync = np.tile(signs[0] * outer, (config.sync_symbols, 1))
    training = np.tile(signs[1] * outer, (config.training_symbols, 1))
    return sync, training


def make_frame(config, data_bits):
    """Assemble a frame from data bits; sync/training rows are the fixed pilots."""
    expected = config.data_symbols_per_frame * config.bits_per_symbol
    data_bits = np.asarray(data_bits)
    if data_bits.size != expected:
        raise FramingError(
            f"data_bits must have {expected} bits for this layout, got {data_bits.size}"
        )
    rows = _frame_rows(config, data_bits.reshape(1, -1))[0]
    return SymbolFrame(*_split_rows(config, rows))


def _frame_rows(config, data_bits):
    """Rows sync | training | data of each frame, from (frames, data bits per
    frame) bits; returns (frames, symbols_per_frame, n)."""
    frames = data_bits.shape[0]
    data = pam_map(data_bits, config.pam_order).reshape(
        frames, config.data_symbols_per_frame, config.n
    )
    pilots = np.concatenate(pilot_rows(config))
    return np.concatenate(
        [np.broadcast_to(pilots, (frames,) + pilots.shape), data], axis=-2
    )


def _split_rows(config, rows):
    """Views (sync, training, data) of (..., symbols_per_frame, n) frame rows."""
    s, t = config.sync_symbols, config.training_symbols
    return rows[..., :s, :], rows[..., s:s + t, :], rows[..., s + t:, :]


def random_data_bits(config, rng):
    return rng.integers(
        0, 2, size=config.data_symbols_per_frame * config.bits_per_symbol
    )


def _to_blocks(plan, cp_len, rows):
    """Multiplex (..., rows, n) frequency-domain rows in one product and
    prepend each block's cyclic prefix; returns (..., rows, cp_len + n)."""
    bodies = rows @ plan.kernel.T
    if not cp_len:
        return bodies
    return np.concatenate([bodies[..., plan.n - cp_len:], bodies], axis=-1)


def _from_blocks(plan, cp_len, blocks):
    """Strip the cyclic prefix of (..., rows, cp_len + n) time-domain blocks
    and demultiplex them in one product; returns (..., rows, n)."""
    return blocks[..., cp_len:] @ plan.kernel


def transmit(config, frame):
    """Multiplex each frame row, prepend the cyclic prefix, serialize."""
    rows = frame.stacked
    if rows.shape[1] != config.n:
        raise ShapeError(f"frame rows must have length {config.n}, got {rows.shape[1]}")
    plan = make_plan(config.kind, config.n, config.alpha)
    blocks = _to_blocks(plan, config.cp_len, rows)
    return SampleStream(samples=blocks.ravel(), cp_len=config.cp_len, n=config.n)


def receive(config, stream):
    """Strip cyclic prefixes, demultiplex, and split rows back into a frame.

    Output rows are raw frequency-domain values (no equalization); for
    alpha < 1 each data row equals C @ (transmitted row) plus noise.
    """
    block = config.cp_len + config.n
    if stream.cp_len != config.cp_len or stream.n != config.n:
        raise FramingError(
            f"stream layout (cp={stream.cp_len}, n={stream.n}) does not match "
            f"config (cp={config.cp_len}, n={config.n})"
        )
    if stream.n_blocks != config.symbols_per_frame:
        raise FramingError(
            f"stream holds {stream.n_blocks} blocks, expected "
            f"{config.symbols_per_frame} for this frame layout"
        )
    plan = make_plan(config.kind, config.n, config.alpha)
    rows = _from_blocks(plan, config.cp_len, stream.samples.reshape(-1, block))
    return SymbolFrame(*_split_rows(config, rows))


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

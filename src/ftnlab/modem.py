"""Transmit chain: 2-PAM mapping, framing, cyclic prefix.

Every subcarrier of a data row carries one bit as a 2-PAM level, -1 or +1.
Frames carry three classes of multicarrier symbols in transmit order
sync | training | data.  Sync and training rows are fixed pseudo-random +-1
patterns; no detector reads them, but they count, as in a realistic link
budget, in the bit density (`ModemConfig.bits_per_sample`) and the sample
energy (`expected_sample_energy`), which set the rate and the noise level.
"""

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import (
    FramingError, ParameterError, allocating_for, check_buffer, check_integer, check_real,
    check_real_array,
)
from .transforms import TransformKind, make_plan, multiplex, sample_power, validate_transform

# Entropy constant for the fixed sync/training patterns.
_PILOT_SEED = 0x0F7C

# The link's sample rate, samples per second: the paper's 10 GS/s.
SAMPLE_RATE = 10e9


@dataclass(frozen=True)
class ModemConfig:
    n: int = 256
    alpha: float = 1.0
    kind: TransformKind = TransformKind.FRCT
    cp_len: int = 0
    data_symbols_per_frame: int = 128
    training_symbols: int = 10
    sync_symbols: int = 1

    def __post_init__(self):
        validate_transform(self.kind, self.n, self.alpha)
        for name in ("cp_len", "data_symbols_per_frame", "training_symbols", "sync_symbols"):
            check_integer(getattr(self, name), name, 0)
        check_real(self.cp_len, "cp_len", 0, self.n, "[]")
        if self.symbols_per_frame == 0:
            raise ParameterError(
                "sync_symbols + training_symbols + data_symbols_per_frame must be >= 1"
            )

    @property
    def symbols_per_frame(self):
        return self.sync_symbols + self.training_symbols + self.data_symbols_per_frame

    @property
    def bits_per_symbol(self):
        return self.n  # one 2-PAM bit per subcarrier

    @property
    def data_bits_per_frame(self):
        return self.data_symbols_per_frame * self.bits_per_symbol

    @property
    def bits_per_sample(self):
        """Net information bits per sample; pilot rows and prefixes carry none."""
        return self.data_bits_per_frame / ((self.n + self.cp_len) * self.symbols_per_frame)


def experiment_baseline(alpha=0.8, **overrides):
    """The experimental baseline layout: N=256, CP 16, 128 data + 10 training
    + 1 sync symbol per frame, 2-PAM at `SAMPLE_RATE`."""
    return replace(ModemConfig(alpha=alpha, cp_len=16), **overrides)


# ---------------------------------------------------------------------------
# 2-PAM mapping

# The 2-PAM levels, indexed by bit or by decision: 0 -> -1, 1 -> +1.
PAM_LEVELS = np.array([-1.0, 1.0])
PAM_LEVELS.flags.writeable = False

# The 2-PAM decision is v > PAM_THRESHOLD.  2**-53 is exact in float32 too,
# so float32 values decide as their float64 conversions would.
PAM_THRESHOLD = 2.0**-53


def pam_map(bits, *, out=None):
    """The 2-PAM level of each bit, as a vector: 0 -> -1, 1 -> +1.  `out`, if
    given, receives the levels: a C-contiguous float64 or float32 vector,
    one per bit."""
    bits = np.asarray(bits)
    # Every bit is 0 or 1: a real dtype, one min/max pass, and for floats an
    # integrality pass.
    kind = bits.dtype.kind
    if kind != "b" and (kind not in "iuf" or bits.size and not (
        bits.min() >= 0 and bits.max() <= 1 and (kind != "f" or np.all(bits == np.floor(bits)))
    )):
        bad = [b for b in bits.ravel().tolist() if b not in (0, 1)][:1] or [bits.dtype]
        raise ParameterError(f"bits must be 0 or 1, got {bad[0]!r}")
    dtype = np.float32 if getattr(out, "dtype", None) == np.float32 else np.float64
    check_buffer(out, (bits.size,), dtype, "out")
    levels = np.multiply(bits.reshape(-1), 2.0, out=out, dtype=dtype)
    levels -= 1.0
    return levels


def pam_index(values, *, out=None):
    """The 2-PAM decision on each value, which is its bit: 1 iff v > 2**-53
    (`PAM_THRESHOLD`), else 0, NaN included.  In float64 this is the nearest
    level with ties to the lower, fl(1 + v) > 1; in float32 that sum would tie
    at 2**-24 instead, so the rule is the comparison, not the sum.  Float32
    values are compared as they are, other dtypes as float64.

    The decisions are one byte each, uint8 0 or 1, and so also indices into
    `PAM_LEVELS`; `out` (uint8, of the shape of `values`) receives them."""
    values = check_real_array(values, "values", floats=(np.float64, np.float32))
    check_buffer(out, values.shape, np.uint8, "out", contiguous=False)
    out = np.empty(values.shape, dtype=np.uint8) if out is None else out
    np.greater(values, PAM_THRESHOLD, out=out.view(bool))
    return out


# ---------------------------------------------------------------------------
# Frames

def pilot_rows(config):
    """The fixed sync and training rows: one pseudo-random +-1 pattern each,
    repeated on every row."""
    rng = np.random.default_rng(np.random.SeedSequence(_PILOT_SEED))
    with allocating_for(n=config.n):
        signs = pam_map(rng.integers(0, 2, size=(1 + 1, config.n))).reshape(2, config.n)
    with allocating_for(sync_symbols=config.sync_symbols):
        sync = np.tile(signs[0], (config.sync_symbols, 1))
    with allocating_for(training_symbols=config.training_symbols):
        training = np.tile(signs[1], (config.training_symbols, 1))
    return sync, training


def random_data_bits(config, rng, frames):
    """Uniform data bits for `frames` frames, a bool array of shape
    (frames, data_bits_per_frame)."""
    check_integer(frames, "frames", 1)
    return rng.integers(0, 2, size=(frames, config.data_bits_per_frame), dtype=bool)


def transmit(config, data_bits):
    """Time-domain blocks of whole frames from (frames, data_bits_per_frame) bits.

    Each frame's rows sync | training | data are multiplexed in one product
    and get their cyclic prefix; returns (frames, symbols_per_frame,
    cp_len + n), whose ravel() is the serialized waveform.
    """
    data_bits = np.asarray(data_bits)
    if data_bits.ndim != 2 or data_bits.shape[1] != config.data_bits_per_frame:
        raise FramingError(
            f"data_bits must have shape (frames, {config.data_bits_per_frame}) "
            f"for this layout, got {data_bits.shape}"
        )
    pilots = np.concatenate(pilot_rows(config))
    data = pam_map(data_bits).reshape(len(data_bits), config.data_symbols_per_frame, config.n)
    rows = np.concatenate((np.broadcast_to(pilots, (len(data),) + pilots.shape), data), axis=1)
    body = multiplex(make_plan(config.kind, config.n, config.alpha), rows)
    return np.concatenate((body[..., config.n - config.cp_len:], body), axis=-1)


def expected_sample_energy(config):
    """The mean squared sample of `transmit`'s waveform, in expectation over
    uniform data bits, in closed form.  Sample n of a data block has mean
    square sum_k K[n, k]^2, a pilot block its fixed square (both from
    `transforms.sample_power`, which holds no N x N kernel), and a prefix
    repeats the last cp_len samples of its block."""
    power = sample_power(config.kind, config.n, config.alpha, np.concatenate(pilot_rows(config)))
    # The energy of a data block, then of each pilot block, prefixes included.
    energy = power.sum(axis=1) + power[:, config.n - config.cp_len:].sum(axis=1)
    total = config.data_symbols_per_frame * energy[0] + energy[1:].sum()
    return float(total / (config.symbols_per_frame * (config.cp_len + config.n)))


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
    fs = SAMPLE_RATE
    period = config.n / fs
    return RateReport(
        symbol_rate=fs,
        nyquist_rate=config.alpha * fs,
        baseband_bandwidth=config.alpha * fs / 2.0,
        baseband_bandwidth_exact=(config.n - 1) * config.alpha / (2.0 * period)
        + 1.0 / period,
        net_bit_rate=fs * config.bits_per_sample,
    )

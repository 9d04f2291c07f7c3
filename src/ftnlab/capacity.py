"""Capacity-limit calculators for compressed-spacing multicarrier signaling.

The chain: Shannon bound W*log2(1+SNR) for orthogonal signaling; the
n-sphere volume pi^(n/2) r^n / Gamma(n/2+1) behind the sphere-packing count
of distinguishable signals; and the compressed-spacing bound

    C <= (1/alpha) * W * log2(1 + P_S / (P_N + P_ICI)),

which reduces to the Shannon bound at alpha = 1 with no self-interference.
Sphere/count arithmetic is done in the log domain: at communication scale
the dimension 2WT/alpha easily exceeds 1e3 and direct evaluation overflows.
"""

import math
from dataclasses import dataclass

from .exceptions import check_alpha, check_real


@dataclass(frozen=True)
class CapacityParams:
    bandwidth_hz: float
    signal_power: float
    noise_power: float
    ici_power: float = 0.0
    alpha: float = 1.0
    symbol_duration: float = 1.0

    def __post_init__(self):
        check_real(self.bandwidth_hz, "bandwidth_hz", 0)
        check_real(self.signal_power, "signal_power", 0, closed="[)")
        check_real(self.noise_power, "noise_power", 0)
        check_real(self.ici_power, "ici_power", 0, closed="[)")
        check_alpha(self.alpha)
        check_real(self.symbol_duration, "symbol_duration", 0)


def shannon_limit(p):
    """Orthogonal-signaling capacity bound W * log2(1 + P_S/P_N), bits/s."""
    return p.bandwidth_hz * math.log2(1.0 + p.signal_power / p.noise_power)


def log_sphere_volume(n, r):
    """Natural log of the n-dimensional sphere volume of radius r."""
    from scipy.special import gammaln

    check_real(n, "n", 1, closed="[)")
    check_real(r, "r", 0, closed="[)")
    if r == 0:
        return -math.inf
    return 0.5 * n * math.log(math.pi) + n * math.log(r) - float(gammaln(n / 2.0 + 1.0))


def sphere_volume(n, r):
    """Volume pi^(n/2) r^n / Gamma(n/2 + 1); evaluated via logs so large n
    degrades to 0.0/inf instead of overflowing midway."""
    logv = log_sphere_volume(n, r)
    try:
        return math.exp(logv)
    except OverflowError:
        return math.inf


def distinguishable_signals(p):
    """log2 of the sphere-packing bound on the number of distinguishable
    signals in 2WT/alpha dimensions (returned as log2 to avoid overflow)."""
    snr = p.signal_power / (p.noise_power + p.ici_power)
    return (p.bandwidth_hz * p.symbol_duration / p.alpha) * math.log2(1.0 + snr)


def capacity_ftn(p):
    """Compressed-spacing capacity bound
    (1/alpha) * W * log2(1 + P_S/(P_N + P_ICI)), bits/s."""
    snr = p.signal_power / (p.noise_power + p.ici_power)
    return (1.0 / p.alpha) * p.bandwidth_hz * math.log2(1.0 + snr)

"""Memoryless AWGN channel parameterized by Eb/N0.

The noise standard deviation is derived from the measured waveform energy:

    sigma^2 = E_s / (2 * (Eb/N0)_linear * bits_per_sample)

where E_s is the mean squared transmitted sample and bits_per_sample is the
net information-bit density of the stream.  With a unit-energy 2-PAM
alphabet through an orthonormal kernel (alpha = 1, no prefix) this makes
the end-to-end bit error rate equal the antipodal bound Q(sqrt(2 Eb/N0)).

Seeding accepts an integer >= 0 or a numpy SeedSequence; callers running
blocks in parallel derive child sequences so a fixed (seed, layout) pair
reproduces the same noise regardless of worker count.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import ParameterError, check_buffer, check_integer, check_real, check_real_array


@dataclass(frozen=True)
class AwgnSpec:
    eb_n0_db: float
    bits_per_sample: float
    rng_seed: object = 0  # int or numpy SeedSequence

    def __post_init__(self):
        check_real(self.eb_n0_db, "eb_n0_db")
        check_real(self.bits_per_sample, "bits_per_sample", 0)
        if not isinstance(self.rng_seed, np.random.SeedSequence):
            check_integer(self.rng_seed, "rng_seed", 0)


def measure_sample_energy(samples, *, scratch=None):
    """Mean squared sample of a waveform.  `scratch`, if given, receives the
    squares: a C-contiguous float64 array of the waveform's shape."""
    samples = check_real_array(samples, "samples")
    if samples.size == 0:
        raise ParameterError("samples must be nonempty")
    check_buffer(scratch, samples.shape, np.float64, "scratch")
    return float(np.mean(np.multiply(samples, samples, out=scratch)))


def noise_sigma(spec, sample_energy):
    gamma = 10.0 ** (spec.eb_n0_db / 10.0)
    return float(np.sqrt(sample_energy / (2.0 * gamma * spec.bits_per_sample)))


def apply_awgn(spec, samples, *, out=None, scratch=None):
    """Add independent zero-mean Gaussian noise to every sample.

    Deterministic per seed; noise is drawn in C order, so a waveform gets the
    same noise whether it is given raveled or as the blocks of `transmit`.
    `out` receives the noisy waveform (it may be `samples` itself) and
    `scratch` the squares and then the noise; both are float64 arrays of the
    waveform's shape, `scratch` C-contiguous and apart from `samples`.
    """
    samples = check_real_array(samples, "samples")
    check_buffer(out, samples.shape, np.float64, "out", contiguous=False)
    sigma = noise_sigma(spec, measure_sample_energy(samples, scratch=scratch))
    # Scaled in place, standard normals are the bits of normal(0, sigma).
    rng = np.random.default_rng(spec.rng_seed)
    noise = rng.standard_normal(samples.shape, out=scratch)
    noise *= sigma
    return np.add(samples, noise, out=out)

"""Memoryless AWGN channel parameterized by Eb/N0, in the data domain.

The channel adds independent zero-mean Gaussian noise to every transmitted
sample, with standard deviation

    sigma^2 = E_s / (2 * (Eb/N0)_linear * bits_per_sample)

where E_s is the layout's expected mean squared sample
(`modem.expected_sample_energy`, pilots and prefixes included) and
bits_per_sample is the net information-bit density of the stream.  With a
unit-energy 2-PAM alphabet through an orthonormal kernel (alpha = 1, no
prefix) this makes the end-to-end bit error rate equal the antipodal bound
Q(sqrt(2 Eb/N0)).

Only the noise on the data blocks' N body samples reaches a detector: the
receiver strips the prefixes and demultiplexes the data rows, so a row of
white noise w arrives as w K, K the multiplexing kernel.  `apply_awgn`
draws exactly that noise and nothing on the pilots or prefixes.

Seeding accepts an integer >= 0 or a numpy SeedSequence; callers running
blocks in parallel derive child sequences so a fixed (seed, layout) pair
reproduces the same noise regardless of worker count.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import check_apart, check_buffer, check_integer, check_real
from .transforms import demultiplex


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


def noise_sigma(spec, sample_energy):
    gamma = 10.0 ** (spec.eb_n0_db / 10.0)
    return float(np.sqrt(sample_energy / (2.0 * gamma * spec.bits_per_sample)))


def apply_awgn(spec, sample_energy, plan, rows, *, out=None, scratch=None):
    """The channel's noise on `rows` received data rows, as the demultiplexer
    of `plan` passes it on: sigma W K, with W of shape (rows, N) standard
    normals drawn in C order, deterministic per seed, and sigma from
    `sample_energy`, the stream's expected mean squared sample.  A receiver
    adds it to its noise-free rows S C.

    `scratch` receives sigma W, the white noise on the rows' samples, and
    `out` sigma W K; both are C-contiguous float64 (rows, N) arrays, apart.
    """
    check_real(sample_energy, "sample_energy", 0)
    check_integer(rows, "rows", 1)
    shape = (rows, plan.n)
    check_buffer(out, shape, np.float64, "out")
    check_buffer(scratch, shape, np.float64, "scratch")
    check_apart(out=out, scratch=scratch)
    # Scaled in place, standard normals are the bits of normal(0, sigma).
    noise = np.random.default_rng(spec.rng_seed).standard_normal(shape, out=scratch)
    noise *= noise_sigma(spec, sample_energy)
    return demultiplex(plan, noise, out=out)

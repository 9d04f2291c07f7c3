"""Memoryless AWGN channel parameterized by Eb/N0, in the data domain.

The channel adds independent zero-mean Gaussian noise to every transmitted
sample, with standard deviation

    sigma^2 = E_s / (2 * (Eb/N0)_linear * bits_per_sample)

where E_s is the layout's expected mean squared sample
(`modem.expected_sample_energy`, pilots and prefixes included) and
bits_per_sample is the net information-bit density of the stream.  With a
unit-energy 2-PAM alphabet through an orthonormal kernel (alpha = 1, no
prefix) this makes the end-to-end bit error rate equal the antipodal bound
Q(sqrt(2 Eb/N0)).  `noise_sigma` is that law.

Only the noise on the data blocks' N body samples reaches a detector: the
receiver strips the prefixes and demultiplexes the data rows, so a row of
white noise w arrives as w K, K the multiplexing kernel.  `apply_awgn`
draws exactly that noise at unit variance, nothing on the pilots or
prefixes, and a receiver scales it by each Eb/N0's sigma.

Seeding accepts an integer >= 0 or a numpy SeedSequence; callers running
blocks in parallel derive child sequences so a fixed (seed, layout) pair
reproduces the same noise regardless of worker count.
"""

import numpy as np

from .exceptions import check_apart, check_buffer, check_integer, check_real
from .transforms import demultiplex

# The Eb/N0 values accepted, in dB: within them sigma, and the detector's
# float32 rows, stay finite for any layout.
EBN0_DB_RANGE = (-300, 300)


def noise_sigma(eb_n0_db, bits_per_sample, sample_energy):
    """The noise's standard deviation per sample at `eb_n0_db`, for a stream
    of `bits_per_sample` information bits per sample whose expected mean
    squared sample is `sample_energy`."""
    check_real(eb_n0_db, "eb_n0_db", *EBN0_DB_RANGE, "[]")
    check_real(bits_per_sample, "bits_per_sample", 0)
    check_real(sample_energy, "sample_energy", 0)
    gamma = 10.0 ** (eb_n0_db / 10.0)
    return float(np.sqrt(sample_energy / (2.0 * gamma * bits_per_sample)))


def apply_awgn(rng_seed, plan, rows, *, out=None, scratch=None):
    """Unit white noise on `rows` received data rows, as the demultiplexer of
    `plan` passes it on: W K, with W of shape (rows, N) standard normals
    drawn in C order, deterministic per `rng_seed`.  A receiver adds sigma
    times it to its noise-free rows S C.

    `scratch` receives W and `out` W K; both are C-contiguous float64
    (rows, N) arrays, apart.
    """
    if not isinstance(rng_seed, np.random.SeedSequence):
        check_integer(rng_seed, "rng_seed", 0)
    check_integer(rows, "rows", 1)
    shape = (rows, plan.n)
    check_buffer(out, shape, np.float64, "out")
    check_buffer(scratch, shape, np.float64, "scratch")
    check_apart(out=out, scratch=scratch)
    noise = np.random.default_rng(rng_seed).standard_normal(shape, out=scratch)
    return demultiplex(plan, noise, out=out)

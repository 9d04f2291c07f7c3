"""Memoryless AWGN channel parameterized by Eb/N0, in the data domain.

The channel adds independent zero-mean Gaussian noise to every transmitted
sample, with standard deviation

    sigma^2 = E_s / (2 * (Eb/N0)_linear * bits_per_sample)

where E_s (`modem.expected_sample_energy`) and bits_per_sample
(`ModemConfig.bits_per_sample`) are the layout's expected mean squared
sample and net information-bit density: pilots and prefixes carry energy
but no bits.  With a unit-energy 2-PAM alphabet through an orthonormal
kernel (alpha = 1, no prefix) the end-to-end bit error rate is then the
antipodal bound Q(sqrt(2 Eb/N0)).  `noise_sigma` is that law.

Only the noise on the data blocks' N body samples reaches a detector: the
receiver strips the prefixes and demultiplexes the data rows, so a row of
white noise w arrives as w K, K the multiplexing kernel.  `apply_awgn`
draws exactly that noise at unit variance, nothing on the pilots or
prefixes, and a receiver scales it by each Eb/N0's sigma.  It draws w in
float32, the precision in which the sweep forms its rows, and through the
sweep's float32 plan W K is one float32 GEMM.

At alpha = 1 it returns W itself, with no GEMM.  There K is orthonormal
(the DCT-II or the DHT), so a row w K of white noise is again white noise:
zero-mean Gaussian with covariance K^T K = C = I.  The computed C
(`icimodel.correlation_matrix`) differs from I by rounding residue only,
N max|C - I| < 2**-26, the bound below which `berlab` skips S (C - I), so
the laws of W K and of W differ below the float32 resolution that W is
drawn in.

Seeding accepts an integer >= 0 or a numpy SeedSequence; callers running
blocks in parallel derive child sequences so a fixed (seed, layout) pair
reproduces the same noise regardless of worker count.
"""

import numpy as np

from .exceptions import (
    allocating_for, check_apart, check_buffer, check_integer, check_real, check_type,
)
from .modem import ModemConfig, expected_sample_energy
from .transforms import TransformPlan, demultiplex

# The Eb/N0 values accepted, in dB: within them sigma, and the detector's
# float32 rows, stay finite for any layout.
EBN0_DB_RANGE = (-300, 300)


def noise_sigma(eb_n0_db, config):
    """The noise's standard deviation per sample at `eb_n0_db` for the frame
    layout `config`, a ModemConfig with data rows."""
    check_real(eb_n0_db, "eb_n0_db", *EBN0_DB_RANGE, "[]")
    check_type(config, ModemConfig, "config")
    check_integer(config.data_symbols_per_frame, "data_symbols_per_frame", 1)
    gamma = 10.0 ** (eb_n0_db / 10.0)
    return float(np.sqrt(expected_sample_energy(config) / (2.0 * gamma * config.bits_per_sample)))


def apply_awgn(rng_seed, plan, rows, *, out=None, scratch=None):
    """Unit white noise on `rows` received data rows, as the demultiplexer of
    `plan` passes it on: W K, with W of shape (rows, N) float32 standard
    normals drawn in C order, deterministic per `rng_seed`, and W K in the
    plan's precision (float32 for the sweep's float32 plan).  At alpha = 1
    it is W itself, in the plan's precision, which has the law of W K
    (module docstring).  A receiver adds sigma times it to its noise-free
    rows S C.

    `scratch` receives W below alpha = 1 and is not written at alpha = 1,
    where W goes straight into a float32 `out`; `out` receives the result.
    Both are C-contiguous (rows, N) arrays, apart, of float32 and of the
    plan's dtype.
    """
    if not isinstance(rng_seed, np.random.SeedSequence):
        check_integer(rng_seed, "rng_seed", 0)
    check_type(plan, TransformPlan, "plan")
    check_integer(rows, "rows", 1)
    shape = (rows, plan.n)
    check_buffer(out, shape, plan.dtype, "out")
    check_buffer(scratch, shape, np.float32, "scratch")
    check_apart(out=out, scratch=scratch)
    rng = np.random.default_rng(rng_seed)
    with allocating_for(rows=rows, n=plan.n):
        if plan.alpha != 1:
            return demultiplex(plan, rng.standard_normal(shape, np.float32, out=scratch), out=out)
        if out is None:
            out = np.empty(shape, plan.dtype)
        if out.dtype == np.float32:
            return rng.standard_normal(shape, np.float32, out=out)
        out[...] = rng.standard_normal(shape, np.float32)
        return out

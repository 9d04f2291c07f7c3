"""Memoryless AWGN channel parameterized by Eb/N0, in the data domain.

The channel adds independent zero-mean Gaussian noise to every transmitted
sample, with standard deviation

    sigma^2 = E_s / (2 * (Eb/N0)_linear * bits_per_sample)

where E_s (`expected_sample_energy`, from the layout's correlation
matrix C) and bits_per_sample (`ModemConfig.bits_per_sample`) are the
layout's expected mean squared sample and net information-bit density:
pilots and prefixes carry energy but no bits.  With a unit-energy 2-PAM
alphabet through an orthonormal kernel (alpha = 1, no prefix) the
end-to-end bit error rate is then the antipodal bound Q(sqrt(2 Eb/N0)).
`noise_sigma` is that law.

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

The noise is seeded by a numpy SeedSequence, one per batch, which the
sweep derives from (seed, curve, batch), so a fixed (seed, layout) pair
reproduces the same noise regardless of worker count.
"""

import numpy as np

from .exceptions import (
    ParameterError, allocating_for, check_apart, check_buffer, check_integer, check_real,
    check_type,
)
from .icimodel import CorrelationMatrix
from .modem import ModemConfig, pilot_rows
from .transforms import TransformPlan, demultiplex, kernel_rows

# The Eb/N0 values accepted, in dB: within them sigma, and the detector's
# float32 rows, stay finite for any layout.
EBN0_DB_RANGE = (-300, 300)


def expected_sample_energy(config, matrix):
    """The mean squared sample of `modem.transmit`'s waveform for the layout
    `config`, in expectation over uniform data bits, in closed form from
    `matrix`, the layout's correlation matrix C = K^T K, and the kernel's
    last cp_len rows K_tail, which a prefix repeats.  The N samples of a data
    block carry trace(C), and those of a pilot block of the fixed row p carry
    p C p^T; its prefix carries |K_tail|^2 or |K_tail p^T|^2."""
    check_type(config, ModemConfig, "config")
    check_type(matrix, CorrelationMatrix, "matrix")
    layout, given = ((c.kind.value, c.n, c.alpha) for c in (config, matrix))
    if layout != given:
        raise ParameterError(f"matrix must be C of the layout's {layout}, got C of {given}")
    tail = kernel_rows(config.kind, config.n, config.alpha, config.n - config.cp_len, config.n)
    total = config.data_symbols_per_frame * (np.trace(matrix.entries) + np.sum(tail * tail))
    for rows in pilot_rows(config):  # each block repeats one row p, if it has rows
        p = rows[:1]
        total += len(rows) * (np.sum(p @ matrix.entries * p) + np.sum(np.square(p @ tail.T)))
    return float(total / (config.symbols_per_frame * (config.cp_len + config.n)))


def noise_sigma(eb_n0_db, config, energy):
    """The noise's standard deviation per sample at `eb_n0_db` for the frame
    layout `config`, a ModemConfig with data rows, whose mean squared sample
    is `energy` (`expected_sample_energy`, once per layout)."""
    check_real(eb_n0_db, "eb_n0_db", *EBN0_DB_RANGE, "[]")
    check_type(config, ModemConfig, "config")
    check_integer(config.data_symbols_per_frame, "data_symbols_per_frame", 1)
    check_real(energy, "energy", 0)
    gamma = 10.0 ** (eb_n0_db / 10.0)
    return float(np.sqrt(energy / (2.0 * gamma * config.bits_per_sample)))


def apply_awgn(rng_seed, plan, rows, *, out=None, scratch=None):
    """Unit white noise on `rows` received data rows, as the demultiplexer of
    the float32 `plan` passes it on: W K, float32, with W of shape (rows, N)
    float32 standard normals drawn in C order from the SeedSequence
    `rng_seed`.  At alpha = 1 it is W itself, which has the law of W K
    (module docstring).  A receiver adds sigma times it to its noise-free
    rows S C.

    `scratch` receives W below alpha = 1 and is not written at alpha = 1,
    where W is drawn straight into `out`; `out` receives the result.  Both
    are C-contiguous float32 (rows, N) arrays, apart.
    """
    check_type(rng_seed, np.random.SeedSequence, "rng_seed")
    check_type(plan, TransformPlan, "plan")
    if plan.dtype != np.float32:
        raise ParameterError(f"plan must be a float32 plan, got a {plan.dtype} plan")
    check_integer(rows, "rows", 1)
    shape = (rows, plan.n)
    check_buffer(out, shape, np.float32, "out")
    check_buffer(scratch, shape, np.float32, "scratch")
    check_apart(out=out, scratch=scratch)
    rng = np.random.default_rng(rng_seed)
    with allocating_for(rows=rows, n=plan.n):
        if plan.alpha != 1:
            return demultiplex(plan, rng.standard_normal(shape, np.float32, out=scratch), out=out)
        return rng.standard_normal(shape, np.float32, out=out)

"""Host-speed calibration for the BER-sweep benchmark.

A fixed numpy kernel with the same mix of work as the workloads: complex
exponentials that build dense transform matrices, complex matrix products at
N = 256 and N = 512, Gaussian noise and hard decisions.  run.py runs two
passes after every timed rep, in its own process, which never imports ftnlab
and pins its BLAS to one thread, so no change to the library can change the
kernel's time.  On a shared host a neighbour's load slows all code alike for
windows of seconds to minutes, by up to 40%; the ratio of a rep's time to
the kernel's time next to it stays within a few percent.
"""

import time

import numpy as np

# Median pass time on the reference host: a 2-vCPU Intel Xeon VM, Python
# 3.11.7, numpy 2.4.6, scipy-openblas 0.3.31, one BLAS thread.
REFERENCE_S = 0.070

_RNG = np.random.default_rng(0)


def pass_seconds():
    """Wall time of one pass of the kernel."""
    t0 = time.perf_counter()
    for n, rows in ((256, 256), (512, 128)):
        k = np.arange(n)
        plan = np.exp(2j * np.pi * 0.8 * np.outer(k, k) / n) / np.sqrt(n)
        x = _RNG.standard_normal((rows, n)) + 1j * _RNG.standard_normal((rows, n))
        y = (x @ plan) @ plan.conj().T + 0.1 * _RNG.standard_normal((rows, n))
        np.count_nonzero(y.real > 0)
    return time.perf_counter() - t0

"""Workload definitions and correctness checks for the BER-sweep benchmark.

A rep is one ``ftnlab.run_ber_sweep`` call over a workload's whole grid with
a fixed bit budget (``min_errors=0``), so every rep does the same work.  Each
rep draws fresh data from a seed derived from (run seed, rep index).

Correctness is checked on every rep, per grid point: a Wilson score interval
at z = 5 (two-sided miss rate 5.7e-7 per point) around the rep's BER must
contain the reference BER.  Iterative detection makes errors come in bursts,
so the FTN error counts vary several times more than a binomial count; the
interval uses the effective sample size bits / deff, where the design effect
deff is the variance ratio measured over the reference reps, widened by the
reference's own sampling error.  Independent errors (the Q-function
reference) have deff = 1.
"""

import json
import math
import os
import statistics
from dataclasses import dataclass

import numpy as np

import ftnlab

CHECK_Z = 5.0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    config: object  # ftnlab.ModemConfig
    ebn0_dbs: tuple
    iterations: int
    batches_per_point: int
    frames_per_batch: int = 4
    workers: int = 1
    check: str = "qfunction"  # or the name of a reference.json entry

    @property
    def bits_per_batch(self):
        c = self.config
        return self.frames_per_batch * c.data_symbols_per_frame * c.bits_per_symbol

    @property
    def bits_per_rep(self):
        return len(self.ebn0_dbs) * self.batches_per_point * self.bits_per_batch

    def spec(self, seed):
        return ftnlab.SweepSpec(
            config=self.config,
            alphas=(self.config.alpha,),
            ebn0_dbs=self.ebn0_dbs,
            iteration_counts=(self.iterations,),
            kinds=(self.config.kind,),
            max_bits=self.batches_per_point * self.bits_per_batch,
            min_errors=0,
            frames_per_batch=self.frames_per_batch,
            seed=seed,
        )


_FTN_GRID = dict(
    config=ftnlab.experiment_baseline(alpha=0.8),
    ebn0_dbs=(6.0, 10.0, 14.0),
    iterations=20,
    batches_per_point=3,
)

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ftn_sweep",
            check="ftn_sweep",
            **_FTN_GRID,
        ),
        Workload(
            name="ortho_sweep",
            config=ftnlab.ModemConfig(
                n=256, alpha=1.0, cp_len=0, data_symbols_per_frame=128,
                training_symbols=0, sync_symbols=0,
            ),
            ebn0_dbs=(4.0, 6.0, 8.0),
            iterations=0,
            batches_per_point=6,
        ),
        Workload(
            name="ftn_sweep_2w",
            workers=2,
            check="ftn_sweep",
            **_FTN_GRID,
        ),
        Workload(
            name="large_n",
            config=ftnlab.experiment_baseline(alpha=0.8, n=1024),
            ebn0_dbs=(10.0,),
            iterations=20,
            batches_per_point=3,
            frames_per_batch=1,
            check="large_n",
        ),
    )
}


def rep_seed(seed, rep):
    """Sweep seed of rep `rep` in a run with seed `seed` (rep 0 is the warm-up)."""
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


def wilson(errors, bits, z=CHECK_Z):
    """Wilson score interval for errors/bits at normal quantile z."""
    phat = errors / bits
    z2 = z * z
    denom = 1.0 + z2 / bits
    center = (phat + z2 / (2.0 * bits)) / denom
    half = (z / denom) * math.sqrt(phat * (1.0 - phat) / bits + z2 / (4.0 * bits * bits))
    return max(0.0, center - half), min(1.0, center + half)


def qfunction_ber(ebn0_db):
    """2-PAM BER over AWGN, Q(sqrt(2 Eb/N0))."""
    return 0.5 * math.erfc(math.sqrt(10.0 ** (ebn0_db / 10.0)))


def load_reference(path=REFERENCE_PATH):
    """Recorded reference points, keyed by entry name."""
    with open(path) as fh:
        return json.load(fh)["points"]


def expected_points(workload, reference):
    """(reference BER, design effect per rep bit budget, reference bits) per
    Eb/N0 point of the workload's grid."""
    if workload.check == "qfunction":
        return [(qfunction_ber(e), 1.0, math.inf) for e in workload.ebn0_dbs]
    by_ebn0 = {}
    for p in reference[workload.check]:
        ber = p["errors"] / p["bits"]
        rep_bits = p["bits"] / len(p["rep_errors"])
        binomial_var = rep_bits * ber * (1.0 - ber)
        deff = max(1.0, statistics.variance(p["rep_errors"]) / binomial_var)
        by_ebn0[p["ebn0_db"]] = (ber, deff, p["bits"])
    return [by_ebn0[e] for e in workload.ebn0_dbs]


def check_rep(workload, result, expected):
    """Return a list of problems with one rep's result (empty when correct)."""
    problems = []
    if len(result.points) != len(workload.ebn0_dbs):
        return [f"expected {len(workload.ebn0_dbs)} points, got {len(result.points)}"]
    budget = workload.batches_per_point * workload.bits_per_batch
    for point, ebn0_db, (ref, deff, ref_bits) in zip(result.points, workload.ebn0_dbs,
                                                     expected):
        if point.ebn0_db != ebn0_db or point.bits != budget:
            problems.append(f"point {point.ebn0_db} dB: {point.bits} bits, expected {budget}")
            continue
        scale = deff * (1.0 + point.bits / ref_bits)
        lo, hi = wilson(point.errors / scale, point.bits / scale)
        if not lo <= ref <= hi:
            problems.append(
                f"point {ebn0_db} dB: BER {point.errors}/{point.bits} interval "
                f"[{lo:.3e}, {hi:.3e}] (deff {scale:.2f}) misses reference {ref:.3e}"
            )
    return problems


def replay_matches(result, replay):
    """Byte-for-byte equality of two sweep results (repr keeps every float digit)."""
    return repr(result.points).encode() == repr(replay.points).encode()

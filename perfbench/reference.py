"""Record the reference BERs that the FTN workloads are checked against.

    PYTHONPATH=src python3 perfbench/reference.py

Runs REPS reps of each workload grid that has a reference entry, with sweep
seeds from 2**32 upward; run seeds map to rep seeds below 2**32, so no
benchmark rep shares data with the reference.  Keeps each rep's error count,
from which the checks measure how bursty the errors are.  Writes
perfbench/reference.json.
"""

import json
import subprocess

import ftnlab

import workloads

REPS = 64
FIRST_SEED = 2**32


def record(workload):
    rep_errors = [[] for _ in workload.ebn0_dbs]
    for i in range(REPS):
        result = ftnlab.run_ber_sweep(workload.spec(FIRST_SEED + i))
        for errors, point in zip(rep_errors, result.points):
            errors.append(point.errors)
    bits = REPS * workload.bits_per_rep // len(workload.ebn0_dbs)
    return [
        {"ebn0_db": e, "errors": sum(k), "bits": bits, "rep_errors": k}
        for e, k in zip(workload.ebn0_dbs, rep_errors)
    ]


def main():
    entries = {}
    for w in workloads.WORKLOADS.values():
        if w.check != "qfunction" and w.check not in entries:
            entries[w.check] = record(workloads.WORKLOADS[w.check])
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True).stdout.strip()
    payload = {
        "recorded_at_commit": commit,
        "reps": REPS,
        "first_seed": FIRST_SEED,
        "points": entries,
    }
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

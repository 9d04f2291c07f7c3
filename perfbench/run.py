"""BER-sweep benchmark of ftnlab.

    python3 perfbench/run.py --workload ftn_sweep --seed 1 --seconds 20 --trace 0

Run from the root of an ftnlab checkout; the library is imported from
``src/``.  Every workload runs in fresh interpreters with the BLAS/OpenMP
thread variables cleared, so the library's defaults apply.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer metrics from a separate traced run.  The end-to-end times are
scaled to a reference host speed, measured by ``calibrate.py`` after every
timed rep; the unscaled times are printed too.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a copy with the runtime record goes to ``perfbench/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A --trace 0 run splits its seconds over this many fresh interpreters, each of
# which sets up and then times reps.  The rep-time metrics take the median over
# the reps of all of them.
INTERPRETERS = 4
REPS_PER_INTERPRETER = 100_000  # rep index offset between interpreters
CALIBRATION_PASSES = 2  # after each rep
TIME_LIMIT_S = 170.0


def child_env(root):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def child_command(*args):
    return [sys.executable, os.path.join(HERE, "child.py"), *map(str, args)]


def run_child(args, env, deadline):
    """Run one child interpreter to its end; returns its last stdout line, parsed."""
    proc = subprocess.run(child_command(*args), env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.exit(f"run.py: child {args} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_child(args, env, deadline, seconds, calibration):
    """Run one measuring child: after its set-up, ask it for reps for `seconds`,
    with CALIBRATION_PASSES calibration passes after each (appended to
    `calibration`).

    Returns the child's output with the spawn time, rep wall and CPU times added.
    """
    import calibrate  # imported late: numpy must see the thread variables main() sets

    spawned = time.monotonic()
    proc = subprocess.Popen(child_command(*args), env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()

    def ask(command):
        if command:
            proc.stdin.write(command + "\n")
            proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            sys.exit(f"run.py: child {args} ended early with code {proc.wait()}")
        return json.loads(line)

    try:
        out = ask(None)
        walls, cpus = [], []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            reply = ask("rep")
            if reply["returned"]:
                walls.append(reply["wall"])
                cpus.append(reply["cpu"])
            calibration.extend(calibrate.pass_seconds() for _ in range(CALIBRATION_PASSES))
        out.update(ask("end"), spawned=spawned, walls=walls, cpus=cpus)
        if proc.wait() != 0:
            sys.exit(f"run.py: child {args} exited with code {proc.returncode}")
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return out


def end_to_end(outs, calibration):
    """End-to-end metrics from the measuring children and the calibration passes.

    On a shared host a neighbour's load slows all code alike, for windows of
    seconds to minutes, by up to 40%, in CPU time as well as wall time.  The
    time metrics are therefore divided by host_slowdown, the median
    calibration pass of the run over calibrate.REFERENCE_S: they are what the
    run would have taken on the reference host.
    """
    import calibrate

    failed = sum(out["failed"] for out in outs)
    attempted = sum(out["attempted"] for out in outs)
    setup = [out["ready"] - out["spawned"] for out in outs]
    mbit_per_rep = outs[0]["bits_per_rep"] / 1e6
    wall = statistics.median(w for out in outs for w in out["walls"])
    cpu = statistics.median(c for out in outs for c in out["cpus"])
    slowdown = statistics.median(calibration) / calibrate.REFERENCE_S
    raw = {
        "sim_mbit_per_s": mbit_per_rep / wall,
        "cpu_s_per_mbit": cpu / mbit_per_rep,
        "setup_s": statistics.median(setup),
    }
    metrics = {
        "sim_mbit_per_s": (raw["sim_mbit_per_s"] * slowdown, "Mbit/s"),
        "cpu_s_per_mbit": (raw["cpu_s_per_mbit"] / slowdown, "s/Mbit"),
        "setup_s": (raw["setup_s"] / slowdown, "s"),
        "peak_rss_mb": (max(out["peak_rss_mb"] for out in outs), "MB"),
        "ok_rep_frac": (1.0 - failed / attempted, "ratio"),
    }
    extra = {"host_slowdown": slowdown, "raw": raw, "calibration_s": calibration,
             "setup_samples_s": setup, "rep_walls_s": [out["walls"] for out in outs],
             "rep_cpu_s": [out["cpus"] for out in outs]}
    return metrics, attempted, failed, extra


def main(argv=None):
    deadline = time.monotonic() + TIME_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ftnlab", "__init__.py")):
        print("run.py: no src/ftnlab here; run it from the root of an ftnlab checkout",
              file=sys.stderr)
        return 2
    # The children run with the thread variables cleared; this process, which
    # runs the calibration kernel and never imports the library, with one thread.
    env = child_env(root)
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, HERE)
    import calibrate

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.trace:
        out = run_child(("trace", args.workload, args.seed, args.seconds, 1), env, deadline)
        metrics = {k: (m["value"], m["unit"]) for k, m in out["metrics"].items()}
        attempted, failed, extra = out["attempted"], out["failed"], {}
        problems = out["problems"]
    else:
        calibrate.pass_seconds()  # untimed: first-call costs
        calibration = []
        outs = [
            measure_child(("measure", args.workload, args.seed, 0, 1 + i * REPS_PER_INTERPRETER),
                          env, deadline, args.seconds / INTERPRETERS, calibration)
            for i in range(INTERPRETERS)
        ]
        metrics, attempted, failed, extra = end_to_end(outs, calibration)
        out = outs[0]
        problems = [p for o in outs for p in o["problems"]]

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    record = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "runtime": out["runtime"],
                   "problems": problems, **extra}, fh, indent=1)
    print(f"workload {args.workload} seed {args.seed} runtime {json.dumps(out['runtime'])}")
    for problem in problems:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for name, value in extra.get("raw", {}).items():
        print(f"{'raw ' + name:40s} {value:14.6g} (host slowdown {extra['host_slowdown']:.4f})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

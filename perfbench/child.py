"""One workload in one fresh interpreter; started by run.py, not by hand.

    python3 perfbench/child.py MODE WORKLOAD SEED SECONDS FIRST_REP

Sets up (import, correlation matrix, warm-up rep 0).  In MODE ``measure`` it
then prints a JSON line and times reps FIRST_REP, FIRST_REP + 1, ... one per
``rep`` line on standard input, answering each with a JSON line, until
``end`` (SECONDS is not used).  In MODE ``trace`` it alternates traced and
untraced reps for SECONDS.  The last line of standard output is a JSON
object.
"""

import time

_T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import ftnlab  # noqa: E402

_IMPORT_S = time.perf_counter() - _T_START

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from run import THREAD_VARS  # noqa: E402

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
DGEMM_N = 1024
DGEMM_REPEATS = 8
C_BUILDS = 5


def runtime():
    """The runtime a result was measured on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ftnlab": ftnlab.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class Runner:
    """Runs and checks reps of one workload; counts attempts and failures."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.expected = workloads.expected_points(workload, workloads.load_reference())
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, rep, workers=None):
        """Run and check rep `rep`; returns (result or None, wall s, cpu s)."""
        spec = self.workload.spec(workloads.rep_seed(self.seed, rep))
        self.attempted += 1
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = ftnlab.run_ber_sweep(spec, workers=workers or self.workload.workers)
        except Exception as exc:  # a rep that raises is a failed rep, not a crash
            self.fail(rep, [f"{type(exc).__name__}: {exc}"])
            return None, 0.0, 0.0
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        problems = workloads.check_rep(self.workload, result, self.expected)
        if problems:
            self.fail(rep, problems)
        return result, wall, cpu

    def fail(self, rep, problems):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.extend(f"rep {rep}: {p}" for p in problems)

    def replay_check(self, rep, result):
        """Replay rep `rep` at workers=1; its result must match byte for byte."""
        replay, _, _ = self.run(rep, workers=1)
        if result is not None and replay is not None and not workloads.replay_matches(
            result, replay
        ):
            self.fail(rep, ["workers=1 replay differs from the multi-worker result"])


def serve_reps(runner, first_rep):
    """Time one rep per ``rep`` line on stdin until ``end``; answer each on stdout."""
    rep = first_rep
    for line in sys.stdin:
        if line.strip() != "rep":
            break
        result, wall, cpu = runner.run(rep)
        rep += 1
        print(json.dumps({"returned": result is not None, "wall": wall, "cpu": cpu}),
              flush=True)


def dgemm_peak_gflop_s():
    rng = np.random.default_rng(0)
    a, b = rng.random((DGEMM_N, DGEMM_N)), rng.random((DGEMM_N, DGEMM_N))
    best = float("inf")
    a @ b
    for _ in range(DGEMM_REPEATS):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * DGEMM_N**3 / best / 1e9


def layer_metrics(workload, tracer, traced_reps, traced_walls, plain_walls, plain_cpu,
                  peak):
    """Per-layer metrics from the spans of the traced reps (see README.md)."""
    per_rep = [spans.rep_layer_stats(s) for r, s in spans.by_rep(tracer.spans).items()
               if r in traced_reps]

    def med(fn):
        return statistics.median(fn(*stats) for stats in per_rep)

    def self_ms(name):
        return med(lambda selfs, calls, wall, busy: 1e3 * selfs[name])

    def self_frac(name):
        return med(lambda selfs, calls, wall, busy: selfs[name] / wall)

    def per_batch(name):
        return med(lambda selfs, calls, wall, busy: calls[name] / calls["channel.apply_awgn"])

    c = workload.config
    batches = med(lambda selfs, calls, wall, busy: calls["channel.apply_awgn"])
    consumed = workload.bits_per_rep / workload.bits_per_batch
    id_ms = self_ms("equalize.id_equalize_frame")
    data_rows = batches * workload.frames_per_batch * c.data_symbols_per_frame
    id_gflop = 2.0 * c.n**2 * data_rows * workload.iterations / 1e9
    id_gflop_s = id_gflop / (id_ms / 1e3)
    tx_rows = batches * workload.frames_per_batch * c.symbols_per_frame
    c_builds = [s.duration for s in tracer.spans if s.name == "icimodel.correlation_matrix"]
    return {
        "setup.import_s": (_IMPORT_S, "s"),
        "icimodel.correlation_matrix.ms": (1e3 * statistics.median(c_builds), "ms"),
        "transforms.make_plan.self_ms": (self_ms("transforms.make_plan"), "ms"),
        "transforms.make_plan.self_frac": (self_frac("transforms.make_plan"), "ratio"),
        "transforms.make_plan.calls_per_batch": (per_batch("transforms.make_plan"), "count"),
        "transforms.gflop_per_rep": (2 * 2.0 * c.n**2 * tx_rows / 1e9, "GFLOP"),
        "modem.transmit.self_ms": (self_ms("modem.transmit"), "ms"),
        "modem.receive.self_ms": (self_ms("modem.receive"), "ms"),
        "modem.make_frame.self_ms": (self_ms("modem.make_frame"), "ms"),
        "modem.pilot_rows.calls_per_batch": (per_batch("modem.pilot_rows"), "count"),
        "modem.pam_demap.self_ms": (self_ms("modem.pam_demap"), "ms"),
        "modem.pam_demap.self_frac": (self_frac("modem.pam_demap"), "ratio"),
        "channel.apply_awgn.self_ms": (self_ms("channel.apply_awgn"), "ms"),
        "channel.apply_awgn.self_frac": (self_frac("channel.apply_awgn"), "ratio"),
        "equalize.id_equalize_frame.self_ms": (id_ms, "ms"),
        "equalize.id_equalize_frame.self_frac": (
            self_frac("equalize.id_equalize_frame"), "ratio"),
        "equalize.ms_per_iteration": (id_ms / (batches * max(workload.iterations, 1)), "ms"),
        "equalize.gflop_per_rep": (id_gflop, "GFLOP"),
        "equalize.gflop_s": (id_gflop_s, "GFLOP/s"),
        "equalize.frac_of_peak": (id_gflop_s / peak, "ratio"),
        "berlab.run_ber_sweep.self_ms": (self_ms("berlab.run_ber_sweep"), "ms"),
        "berlab.batches_computed": (batches, "count"),
        "berlab.overshoot_batches": (batches - consumed, "count"),
        "berlab.worker_busy_frac": (
            med(lambda selfs, calls, wall, busy: busy / (workload.workers * wall)), "ratio"),
        "berlab.rep_ms_p90": (1e3 * statistics.quantiles(plain_walls, n=10)[-1], "ms"),
        "process.cpu_per_wall": (plain_cpu / sum(plain_walls), "ratio"),
        "blas.dgemm_peak_gflop_s": (peak, "GFLOP/s"),
        "trace.overhead_frac": (
            statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0, "ratio"),
    }


def main(argv):
    mode, name, seed, seconds, first_rep = (
        argv[1], argv[2], int(argv[3]), float(argv[4]), int(argv[5]))
    if name not in workloads.WORKLOADS:
        print(f"child.py: unknown workload {name!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        sys.exit(2)
    workload = workloads.WORKLOADS[name]
    runner = Runner(workload, seed)
    tracer = spans.Tracer()
    if mode == "trace":
        tracer.install()
        tracer.rep = 0
    warmup, _, _ = runner.run(0)
    out = {"ready": time.monotonic(), "bits_per_rep": workload.bits_per_rep}
    if mode == "measure":
        print(json.dumps(out), flush=True)
        serve_reps(runner, first_rep)
        if workload.workers > 1 and first_rep == 1:  # once per run: the first interpreter
            runner.replay_check(0, warmup)
        out = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    elif mode == "trace":
        for _ in range(C_BUILDS - 1):
            ftnlab.correlation_matrix(workload.config.kind, workload.config.n,
                                      workload.config.alpha)
        tracer.uninstall()
        peak = dgemm_peak_gflop_s()
        traced_reps, traced_walls, plain_walls, plain_cpu = set(), [], [], 0.0
        deadline = time.perf_counter() + seconds
        rep = first_rep
        # Past the deadline, go on only until both kinds have samples (at most 8 reps).
        while time.perf_counter() < deadline or (
            (len(plain_walls) < 2 or not traced_reps) and rep < first_rep + 8
        ):
            traced = rep % 2 == 0
            if traced:
                tracer.rep = rep
                tracer.install()
            result, wall, cpu = runner.run(rep)
            tracer.uninstall()
            if result is not None and traced:
                traced_reps.add(rep)
                traced_walls.append(wall)
            elif result is not None:
                plain_walls.append(wall)
                plain_cpu += cpu
            rep += 1
        if workload.workers > 1:
            runner.replay_check(0, warmup)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"{name}-seed{seed}.spans.jsonl"))
        metrics = layer_metrics(workload, tracer, traced_reps, traced_walls, plain_walls,
                                plain_cpu, peak)
        out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems,
               runtime=runtime())
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)

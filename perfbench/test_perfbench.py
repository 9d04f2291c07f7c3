"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import ftnlab  # noqa: E402
from ftnlab import modem, transforms  # noqa: E402

import calibrate  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ORTHO = workloads.WORKLOADS["ortho_sweep"]


def _run_bench(trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "ortho_sweep",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.fixture(scope="module")
def short_runs():
    return {trace: _run_bench(trace) for trace in (0, 1)}


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_prints_every_metric_with_its_unit(short_runs, trace, key):
    proc = short_runs[trace]
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[key]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    for name, unit in declared.items():
        assert any(line.split()[0] == name and line.split()[-1] == unit for line in lines[:-1])


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_bench(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _flipped(result):
    return ftnlab.BerSweepResult(points=tuple(
        dataclasses.replace(p, errors=p.bits - p.errors) for p in result.points
    ))


def test_flipped_bits_count_as_a_failed_rep(monkeypatch):
    runner = child.Runner(ORTHO, seed=5)
    runner.run(1)
    assert (runner.attempted, runner.failed) == (1, 0)
    original = ftnlab.run_ber_sweep
    monkeypatch.setattr(ftnlab, "run_ber_sweep", lambda spec, workers=1: _flipped(
        original(spec, workers=workers)))
    runner.run(2)
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "misses reference" in runner.problems[0]


def test_raising_rep_counts_as_failed(monkeypatch):
    def broken(spec, workers=1):
        raise ValueError("broken")

    monkeypatch.setattr(ftnlab, "run_ber_sweep", broken)
    runner = child.Runner(ORTHO, seed=5)
    assert runner.run(1)[0] is None
    assert (runner.attempted, runner.failed) == (1, 1)


def test_doubled_ftn_errors_fail_the_reference_check():
    w = workloads.WORKLOADS["ftn_sweep"]
    expected = workloads.expected_points(w, workloads.load_reference())
    budget = w.batches_per_point * w.bits_per_batch
    points = tuple(
        ftnlab.berlab.BerPoint(
            kind=w.config.kind, alpha=w.config.alpha, ebn0_db=e, iterations=w.iterations,
            bits=budget, errors=round(ber * budget), ber=ber, ci_lo=0.0, ci_hi=1.0,
        )
        for e, (ber, _, _) in zip(w.ebn0_dbs, expected)
    )
    assert workloads.check_rep(w, ftnlab.BerSweepResult(points=points), expected) == []
    doubled = ftnlab.BerSweepResult(points=tuple(
        dataclasses.replace(p, errors=2 * p.errors) for p in points))
    assert workloads.check_rep(w, doubled, expected)


def test_time_metrics_are_scaled_by_host_slowdown():
    out = {"attempted": 3, "failed": 0, "spawned": 10.0, "ready": 12.0, "bits_per_rep": 2e6,
           "walls": [0.5, 1.0, 2.0], "cpus": [1.0, 2.0, 4.0], "peak_rss_mb": 100.0}
    metrics, attempted, failed, extra = run.end_to_end([out], [2 * calibrate.REFERENCE_S] * 3)
    assert (attempted, failed) == (3, 0)
    assert extra["host_slowdown"] == pytest.approx(2.0)
    assert extra["raw"] == pytest.approx(
        {"sim_mbit_per_s": 2.0, "cpu_s_per_mbit": 1.0, "setup_s": 2.0})
    assert metrics["sim_mbit_per_s"][0] == pytest.approx(4.0)
    assert metrics["cpu_s_per_mbit"][0] == pytest.approx(0.5)
    assert metrics["setup_s"][0] == pytest.approx(1.0)


def test_replay_check_detects_a_mismatch():
    w = workloads.WORKLOADS["ftn_sweep_2w"]
    runner = child.Runner(w, seed=7)
    result, _, _ = runner.run(1)
    runner.replay_check(1, result)
    assert (runner.attempted, runner.failed) == (2, 0)
    first = result.points[0]
    tampered = ftnlab.BerSweepResult(
        points=(dataclasses.replace(first, errors=first.errors + 1),) + result.points[1:])
    runner.replay_check(1, tampered)
    assert (runner.attempted, runner.failed) == (3, 1)
    assert "replay differs" in runner.problems[-1]


def test_tracer_wraps_names_where_they_are_looked_up():
    make_plan = transforms.make_plan
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert modem.make_plan is transforms.make_plan is not make_plan
        tracer.rep = 1
        ftnlab.run_ber_sweep(ORTHO.spec(0))
    finally:
        tracer.uninstall()
    assert modem.make_plan is make_plan and transforms.make_plan is make_plan
    by_id = {s.id: s for s in tracer.spans}
    callers = {by_id[s.parent].name for s in tracer.spans if s.name == "transforms.make_plan"}
    assert callers == {"modem.transmit", "modem.receive"}
    selfs, calls, wall, busy = spans.rep_layer_stats(tracer.spans)
    batches = ORTHO.bits_per_rep // ORTHO.bits_per_batch
    assert calls["channel.apply_awgn"] == batches
    assert calls["transforms.make_plan"] == 2 * ORTHO.frames_per_batch * batches
    assert 0.0 < busy <= wall
    assert sum(selfs.values()) == pytest.approx(wall)


def test_self_time_subtracts_children_only():
    span = spans.Span
    tree = [
        span(0, "root", 0.0, 10.0, None, 1, 1),
        span(1, "a", 1.0, 4.0, 0, 1, 1),
        span(2, "b", 2.0, 3.0, 1, 1, 1),
        span(3, "c", 5.0, 6.0, 0, 1, 1),
        span(4, "pool", 0.0, 9.0, None, 1, 2),
    ]
    assert spans.self_times(tree) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 9.0}

"""The quick demos run to completion as scripts (04 and 05 take seconds each
and are run by hand)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name,expected_lines", [
    ("01_transforms_and_correlation.py", []),
    ("03_equalizer_convergence.py", ["  recovered exactly: True", "  words recovered: 256/256"]),
    ("06_capacity_limits.py", []),
    ("02_ici_statistics.py", ["  samples            : 524288"]),  # last, so the ids above keep their numbers
])
def test_demo_runs(name, expected_lines):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for line in expected_lines:
        assert line in lines

"""The quick demos run to completion as scripts (04 and 05 take seconds each
and are run by hand)."""

import os
import runpy
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


# Demo 03's whole output, byte for byte: the IdTrace of a one-row stack and
# both recovery lines.
_DEMO03_OUTPUT = """\
======================================================================
1. One equalization trace (N = 16, alpha = 0.85, I = 10)
======================================================================
  iter   band d   undecided
     1     0.90           6
     2     0.80           0
     3     0.70           0
     4     0.60           0
     5     0.50           0
     6     0.40           0
     7     0.30           0
     8     0.20           0
     9     0.10           0
    10     0.00           0
  recovered exactly: True

======================================================================
2. Exhaustive recovery of every 8-bit word (alpha = 0.9)
======================================================================
  words recovered: 256/256
"""


def test_demo03_trace_is_unchanged(capsys):
    runpy.run_path(str(ROOT / "demos" / "03_equalizer_convergence.py"), run_name="__main__")
    assert capsys.readouterr().out == _DEMO03_OUTPUT

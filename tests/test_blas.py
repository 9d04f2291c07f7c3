"""Sweep results do not depend on the BLAS kernel.

The float32 detector decides by the rounding of sgemm, whose summation order
the BLAS kernel and its thread count choose.  One small sweep runs here and
in child processes that make OpenBLAS use other kernels, or one thread, and
each must give the same points, byte for byte.  Run as a script, this module
prints the report of one such process: its OpenBLAS core and the sweep's
points.
"""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ftnlab
from ftnlab.berlab import SweepSpec, _openblas, run_ber_sweep
from ftnlab.modem import ModemConfig
from ftnlab.transforms import TransformKind

# Both kinds, I = 0 and I = 20, and batches of m = 128 and m = 512 data rows,
# below and above N = 256, which the detector multiplies in its two
# orientations.
SPECS = [
    SweepSpec(
        config=ModemConfig(n=256, cp_len=16, data_symbols_per_frame=64, training_symbols=1,
                           sync_symbols=1),
        alphas=(0.8,), ebn0_dbs=(4.0, 8.0), iteration_counts=(0, 20),
        kinds=(TransformKind.FRCT, TransformKind.FRHT), max_bits=100_000, min_errors=0,
        frames_per_batch=frames, seed=11,
    )
    for frames in (2, 8)
]

# The environment of each child, over the caller's.
CHILDREN = {
    "Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "Sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "one thread": {"OPENBLAS_NUM_THREADS": "1"},
}


def _dynamic_openblas():
    """Why the test cannot run here, or None if numpy's BLAS is a
    dynamic-architecture scipy-openblas, whose kernel can be chosen."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "np.show_config reports no BLAS build dependency"
    if blas.get("name") != "scipy-openblas" or \
            "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return f"numpy's BLAS is not a DYNAMIC_ARCH scipy-openblas: {blas}"
    return None


def core_name():
    """The OpenBLAS core that numpy's bundled scipy-openblas runs on."""
    get = _openblas().scipy_openblas_get_corename64_
    get.argtypes, get.restype = [], ctypes.c_char_p
    return get().decode()


def report():
    return {"core": core_name(), "points": [repr(run_ber_sweep(spec).points) for spec in SPECS]}


@pytest.mark.skipif(_dynamic_openblas() is not None, reason=str(_dynamic_openblas()))
def test_points_do_not_depend_on_the_blas_kernel():
    here = report()
    env = {name: value for name, value in os.environ.items()
           if name not in ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(ftnlab.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])])
    for name, settings in CHILDREN.items():
        run = subprocess.run([sys.executable, __file__], env={**env, **settings},
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        child = json.loads(run.stdout)
        # A core type OpenBLAS does not take would fall back to the default.
        assert child["core"] == settings.get("OPENBLAS_CORETYPE", here["core"])
        assert child["points"] == here["points"], name


if __name__ == "__main__":
    print(json.dumps(report()))

"""Smoke test: the narrative demos run to completion against the library.

Demo 04 is left out: it builds the trace table up to level 13 and the
infinite-image certificates at level 7, over 10 s, while the others take
about 1 s together.  No other test runs the demos, so without this one a
library name they use could be deleted without any failure.
"""
import os
import subprocess
import sys

import pytest

import tljhecke

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ["01_exact_arithmetic.py", "02_recoupling_data.py", "03_modular_data.py",
         "05_hecke_and_thurston.py", "06_spin_decomposition.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    src = os.path.dirname(os.path.dirname(tljhecke.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr

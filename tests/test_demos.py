"""Smoke test: the narrative demos run to completion against the library.

No other test runs the demos, so without this one a library name they use
could be deleted without any failure.  Demo 04, which builds the trace
table up to level 13 and the infinite-image certificates at level 7, is the
longest (about 2 s).
"""
import os
import subprocess
import sys

import pytest

import tljhecke

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ["01_exact_arithmetic.py", "02_recoupling_data.py", "03_modular_data.py",
         "04_genus2_representation.py", "05_hecke_and_thurston.py",
         "06_spin_decomposition.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    src = os.path.dirname(os.path.dirname(tljhecke.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr

"""Smoke test: each script in demos/ runs to completion and prints its header."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HEADERS = {
    "cross_solver_check.py": "reference energy (doubly periodic, M=30): ",
    "error_landscape.py": "gamma = 1.0, H = 0.5, L_z = 10.5 (P = 1.0)",
    "tune_for_tolerance.py": "converged reference (M = ",
}


def test_every_demo_has_a_header():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(HEADERS)


@pytest.mark.parametrize("script", sorted(HEADERS))
def test_demo_runs(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / script)],
                         env={**os.environ, "PYTHONPATH": path}, cwd=ROOT,
                         capture_output=True, text=True, check=False)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith(HEADERS[script]), run.stdout[:200]

"""Every demo script runs from a checkout with the source tree on PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# The Monte Carlo demos default to 400 replications; 100 is the fewest the
# summaries accept and keeps each run to a few seconds.
DEMO_ARGS = {
    "null_calibration.py": ["--reps", "100"],
    "size_power.py": ["--reps", "100"],
}


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs_from_checkout(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name), *DEMO_ARGS.get(name, [])],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr

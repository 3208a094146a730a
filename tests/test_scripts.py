"""The scripts run from a checkout, without the package installed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("argv", [
    ["benchmark_solver.py", "--polygons", "2", "--angles", "2"],
    ["sweep_curve.py", "--fixture", "unotch", "--step-deg", "1"],
])
def test_script_runs_from_checkout(argv, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0])] + argv[1:],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

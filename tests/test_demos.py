"""Smoke tests: the demo scripts run to completion and print their headers.

Every demo runs here.  demos/practical_factorization.py, the slowest, takes
4.0-4.7 s on a 2-core x86-64 machine (3 runs), now that it designs each
cell's 10 seeds in one stacked fs_altmin call.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import beamkit

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script, header", [
    ("beam_training_simulation.py", "link 32 x 32, hierarchical factor M = 2"),
    ("ideal_codeword_patterns.py",
     "rect target on [-1, 0], N = 32, flat level sqrt(2) = 1.4142"),
    ("practical_factorization.py", "ideal codeword: N = 32, rect coverage [-1, 0]"),
])
def test_demo_runs_and_prints_its_header(script, header, tmp_path):
    src = str(Path(beamkit.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, str(DEMOS / script)],
                         capture_output=True, text=True, env=env, cwd=tmp_path,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[0] == header

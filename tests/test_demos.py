"""Smoke tests: the demo scripts run to completion and print their headers.

demos/practical_factorization.py (about 5.2 s on a 2-core x86-64 machine,
median of 3 runs of 4.8-5.7 s) is not run here; it joins once it runs in
under 5 s, as batched analog design should make it.
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

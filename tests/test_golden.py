"""The designs' outputs match the committed golden ledger bit for bit.

See tests/golden/make_golden.py for what is hashed and how to regenerate.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beamkit

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

import make_golden  # noqa: E402

# Prints the name and digest of the 144 leading outputs, the fs_altmin/*
# runs; the generator computes lazily, so nothing after them is computed.
# At two threads OpenBLAS splits the Gram product of ps_icd's N = 32
# target over both threads; fs_altmin's own products at these sizes are
# below its threading thresholds.
_FS_ALTMIN_DIGESTS = """
import itertools, json, make_golden
runs = itertools.islice(make_golden.outputs(), 144)
print(json.dumps({name: make_golden.digest(a) for name, a in runs}))
"""


def test_outputs_match_golden_manifest():
    # on failure, pytest shows the two environments check() prints
    bad = make_golden.check()
    assert not bad, "\n".join(bad)


def test_check_lists_every_kind_of_mismatch(monkeypatch, tmp_path):
    a, b = np.zeros(2), np.ones(2)
    manifest = tmp_path / "manifest.json"
    ledger = {n: make_golden.digest(a) for n in ("x", "y", "z")}
    manifest.write_text(json.dumps({"environment": {}, "outputs": ledger}))
    monkeypatch.setattr(make_golden, "MANIFEST", manifest)
    # y comes before x, x is computed twice (first with a wrong digest),
    # w is extra and z is never computed
    computed = [("y", a), ("x", b), ("x", a), ("w", a)]
    monkeypatch.setattr(make_golden, "outputs", lambda: iter(computed))
    assert make_golden.check() == [
        "differs: x",
        "computed twice: x",
        "not in manifest: w",
        "not computed: z",
        "out of manifest order: y where the manifest has x",
    ]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_fs_altmin_outputs_do_not_depend_on_blas_threads(threads):
    src = str(Path(beamkit.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join([src, str(GOLDEN)])}
    run = subprocess.run([sys.executable, "-c", _FS_ALTMIN_DIGESTS],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout)
    expected = json.loads(make_golden.MANIFEST.read_text())["outputs"]
    assert len(seen) == 144
    assert all(n.startswith("fs_altmin/") for n in seen)
    assert [n for n in seen if seen[n] != expected.get(n)] == []

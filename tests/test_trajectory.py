"""Smoke test of bench/trajectory.py at toy sizes (under 2 s)."""

import copy
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "bench" / "trajectory.py"


def _module():
    spec = importlib.util.spec_from_file_location("trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_toy_run_records_times_quality_and_digests(tmp_path, capsys):
    out = tmp_path / "bench.json"
    env = dict(os.environ, PYTHONPATH="")
    for label in ("a", "b"):
        subprocess.run([sys.executable, str(SCRIPT), "--toy", "--label", label,
                        "--out", str(out), "--src", str(REPO / "src")],
                       check=True, capture_output=True, env=env)
    doc = json.loads(out.read_text())
    assert list(doc["runs"]) == ["a", "b"]
    run = doc["runs"]["a"]
    assert run["toy"] and run["environment"]["OPENBLAS_NUM_THREADS"] == "1"
    assert {name.split("/")[0] for name in run["cases"]} == {
        "build_codebook", "fs_altmin", "fs_row", "solve_two_rf", "ps_icd",
        "success_rate", "measure", "channel"}
    for case in run["cases"].values():
        assert case["median_s"] > 0 and len(case["times_s"]) >= 2
        assert case["quality"] and len(case["sha256"]) == 64
    for half in ("practical", "ideal"):
        successes = run["cases"][f"success_rate/{half}/n8/trials20"]["quality"]
        assert 0 <= successes["successes"] <= 20
    assert run["cases"]["measure/nt8/nr4/calls20"]["quality"]["power_mean"] > 0
    assert run["cases"]["channel/nt8/nr4/calls20"]["quality"]["pairs_distinct"] > 1

    # the same code gives the same outputs; a moved result fails the compare
    trajectory = _module()
    assert trajectory.compare(f"{out}:a", f"{out}:b") == 0
    for field in ("sha256", "quality"):
        moved = copy.deepcopy(doc)
        case = moved["runs"]["b"]["cases"]["fs_row/rows8/nrf4/b4"]
        if field == "sha256":
            case["sha256"] = "0" * 64
        else:
            case["quality"]["steps"] += 1
        path = tmp_path / f"{field}.json"
        path.write_text(json.dumps(moved))
        assert trajectory.compare(f"{out}:a", str(path)) == 1
    assert "DIFFERS: steps" in capsys.readouterr().out
    renamed = copy.deepcopy(doc)
    renamed["runs"]["b"]["cases"] = {
        f"{name}-renamed": case
        for name, case in renamed["runs"]["b"]["cases"].items()}
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(renamed))
    assert trajectory.compare(f"{out}:a", str(path)) == 1  # nothing compared


def test_compare_marks_moves_within_the_first_runs_spread(tmp_path, capsys):
    case = {"median_s": 1.0, "iqr_s": 0.2, "quality": {}, "sha256": "0" * 64}
    runs = {"a": {"cases": {"x": case}}}
    for label, median in (("near", 1.2), ("far", 1.3), ("faster", 0.7)):
        runs[label] = {"cases": {"x": {**case, "median_s": median}}}
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"runs": runs}))
    trajectory = _module()
    for label in ("near", "far", "faster"):
        assert trajectory.compare(f"{path}:a", f"{path}:{label}") == 0
    assert capsys.readouterr().out.splitlines() == [
        "x: 1 s -> 1.2 s (x1.200, unresolved)",
        "x: 1 s -> 1.3 s (x1.300)",
        "x: 1 s -> 0.7 s (x0.700)",
    ]


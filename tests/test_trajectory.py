"""Smoke tests of bench/trajectory.py at toy sizes (each under 2 s)."""

import copy
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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
        "success_rate", "measure", "channel", "descent"}
    assert len(run["ref_times_s"]) == 2  # one reference call before, one after
    for case in run["cases"].values():
        assert case["median_s"] > 0 and len(case["times_s"]) >= 2
        assert case["median_ref"] == case["median_s"] / np.median(run["ref_times_s"])
        assert case["quality"] and len(case["sha256"]) == 64
    for half in ("practical", "ideal"):
        successes = run["cases"][f"success_rate/{half}/n8/trials20"]["quality"]
        assert 0 <= successes["successes"] <= 20
    assert run["cases"]["measure/nt8/nr4/calls20"]["quality"]["power_mean"] > 0
    assert run["cases"]["channel/nt8/nr4/calls20"]["quality"]["pairs_distinct"] > 1
    descent = run["cases"]["descent/nt8/nr4/calls20"]["quality"]
    assert descent["pairs_distinct"] > 1 and descent["measurements"] == 20 * 10

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



def test_toy_pair_runs_each_case_in_fresh_processes(tmp_path, capsys):
    out = tmp_path / "bench.json"
    name = "measure/nt8/nr4/calls20"
    src = str(REPO / "src")
    run = subprocess.run([sys.executable, str(SCRIPT), "--toy", "--pair", src, src,
                          "--rounds", "1", "--case", name, "--label", "aa",
                          "--out", str(out)],
                         check=True, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=""))
    case = json.loads(out.read_text())["pairs"]["aa"]["cases"][name]
    assert [len(case[side]) for side in "ab"] == [1, 1]
    assert case["outputs_equal"] and case["resolved"] is None
    assert case["median_ratio"] == case["b"][0]["median_ref"] / case["a"][0]["median_ref"]
    assert run.stdout.startswith(f"{name}: B/A x")
    assert run.stdout.rstrip().endswith(": unresolved")

    # a digest that moves between processes fails the pair
    trajectory = _module()
    record = json.loads(out.read_text())["pairs"]["aa"]
    record["cases"][name]["outputs_equal"] = False
    assert trajectory.report_pair(record) == 1
    assert capsys.readouterr().out.rstrip().endswith("DIFFERS")


def test_sign_test_resolves_only_past_its_stated_tail():
    trajectory = _module()
    assert trajectory.SIGN_ALPHA == 0.01

    def summary(lower, higher, ties=0):
        return trajectory.sign_summary([0.9] * lower + [1.1] * higher + [1.0] * ties)

    assert summary(11, 1)["resolved"] == "lower"  # P(X >= 11 of 12) = 13/4096
    assert summary(11, 1)["p_lower"] == 13 / 4096
    assert summary(10, 2)["resolved"] is None  # 79/4096 > 0.01
    assert summary(10, 0)["resolved"] == "lower"
    assert summary(9, 1)["resolved"] is None
    assert summary(1, 11)["resolved"] == "higher"
    assert summary(6, 6)["resolved"] is None
    # ties count for neither side
    tied = summary(10, 0, ties=2)
    assert (tied["lower"], tied["higher"], tied["resolved"]) == (10, 0, "lower")
    assert summary(5, 5)["median_ratio"] == 1.0

"""Tests of the benchmark harness itself (not part of the library's suite).

    python3 -m pytest perfbench

They run one traced pair per workload twice, so they take about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_beamkit()

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTS = [name for name, unit in PER_LAYER if unit in ("count", "B")]


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    """Two traced runs per workload at one seed, zero extra seconds."""
    out = {}
    for name, wl in WORKLOADS.items():
        workdir = tmp_path_factory.mktemp(name)
        out[name] = [run.run_traced(wl, 7, 0, str(workdir)) for _ in range(2)]
    return out


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_outputs_equal_untraced_and_counts_repeat(traced_twice, workload):
    (tally_a, a, _, tracer), (tally_b, b, _, _) = traced_twice[workload]
    assert tally_a.failed == 0 and tally_b.failed == 0, tally_a.problems
    assert tracer.missing == []
    for name in COUNTS:
        assert type(a[name]) is type(b[name]), name
        assert a[name] == b[name], name


def test_training_makes_the_documented_measurement_count(traced_twice):
    _, metrics, _, _ = traced_twice["training"][0]
    assert metrics["channel.measurements_per_trial"] == 18
    assert metrics["channel.measure.calls"] == 18_000
    assert metrics["practical.HybridCodeword.realized.calls"] == 37_500


def test_only_the_sweep_workload_runs_fs_row(traced_twice):
    sweep = traced_twice["codebook-sweep"][0][1]
    training = traced_twice["training"][0][1]
    assert sweep["practical.fs_row.calls"] > 0
    assert sweep["practical.HybridCodeword.realized.calls"] == 0
    assert training["practical.fs_row.calls"] == 0
    assert training["practical.fs_altmin.calls"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "training",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_measured_run_reports_every_end_to_end_metric(tmp_path):
    tally, metrics, extra, _ = run.run_measured(
        WORKLOADS["training"], 7, 0, str(tmp_path))
    assert tally.failed == 0, tally.problems
    assert extra["ops"] == 2 * WORKLOADS["training"].inputs
    for name, _ in run.END_TO_END:
        assert metrics[name] > 0, name

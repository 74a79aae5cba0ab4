"""The names the benchmark's tracer wraps must exist in beamkit.

perfbench/tracing.py patches these functions, methods and properties from
outside; a rename or removal would otherwise surface only in the slower
benchmark suite, as a missing span.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import beamkit.channel as channel
import beamkit.practical as practical
from beamkit import TrainingConfig, build_codebook, success_rate, training_test_count

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing",
    Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py",
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "module, attr", tracing.SPANNED + tracing.COUNTED,
    ids=[f"{m}.{a}" for m, a in tracing.SPANNED + tracing.COUNTED],
)
def test_traced_name_resolves(module, attr):
    home = importlib.import_module(f"beamkit.{module}")
    owner_name, _, member = attr.rpartition(".")
    owner = getattr(home, owner_name) if owner_name else home
    # the tracer looks the member up on its owner itself, not on a base class
    assert vars(owner).get(member) is not None


def test_campaign_calls_go_through_the_traced_names(monkeypatch):
    # the tracer rebinds module globals and class members; a call through a
    # name bound before it runs (a default argument, say), or a read that
    # bypasses the property, would escape its counts (the benchmark pins
    # the measure and realized counts)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("measure", "draw_channel", "hierarchical_search",
                 "exhaustive_best_pair"):
        monkeypatch.setattr(channel, name, counted(name, getattr(channel, name)))
    realized = vars(practical.HybridCodeword)["realized"]
    monkeypatch.setattr(practical.HybridCodeword, "realized",
                        property(counted("realized", realized.fget)))
    hw = {"n_rf": 2, "b": 4, "t_max": 5}
    tx, rx = (build_codebook(n, k=32, r_max=100, seed=n, hw=hw) for n in (8, 4))
    calls.clear()  # count the campaign only
    trials = 5
    success_rate(TrainingConfig(tx, rx, 0.0, trials, paths=2, use_practical=True))
    # per trial: the descent reads m receive and m^2 transmit codewords on
    # each of the log_m N_r joint layers and 1 + m on each other layer, and
    # the exhaustive search reads every bottom-layer codeword of both
    reads = 2 * (2 + 4) + 1 * (1 + 2) + 8 + 4
    assert calls == {"measure": training_test_count(8, 4, 2) * trials,
                     "draw_channel": trials, "hierarchical_search": trials,
                     "exhaustive_best_pair": trials, "realized": reads * trials}


def test_design_calls_go_through_the_traced_names():
    # the design path's sibling of the campaign guard: the benchmark pins the
    # row-design counts, so a call that escapes the tracer (through a name it
    # does not rebind) must fail here, not only in the benchmark's suite
    importlib.import_module("beamkit.serialization")  # the tracer wraps it too
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        build_codebook(8, m=2, k=32, r_max=100, seed=1,
                       hw={"n_rf": 3, "b": 4, "t_max": 3})
    assert tracer.missing == []
    spans = Counter(tracer.names[i] for i in tracer.name_id)
    got = {name: spans[name] for name in (
        "ideal.ps_icd", "arrays.steering_matrix", "arrays.SteeringMatrix.gram",
        "practical.fs_altmin", "practical.design_nrf1")}
    # one ps_icd and one fs_altmin call for the 6 synthesized entries of both
    # layers, 8 bottom steering vectors
    assert got == {"ideal.ps_icd": 1, "arrays.steering_matrix": 1,
                   "arrays.SteeringMatrix.gram": 1, "practical.fs_altmin": 1,
                   "practical.design_nrf1": 8}
    # of the entries' 52, 48, 28, 24, 24 and 24 live updates (200, two layers
    # of r_max), all 6 take their first 24 together; the 28, 24 and 4 left
    # run in PhaseOptimizer.update
    assert tracer.counts["ideal.PhaseOptimizer.update"] == 28 + 24 + 4

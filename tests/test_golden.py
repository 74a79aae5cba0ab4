"""The designs' outputs match the committed golden ledger bit for bit.

See tests/golden/make_golden.py for what is hashed and how to regenerate.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beamkit
import beamkit.channel
import beamkit.practical
from test_properties import _exhaustive_fs_row, _reference_best_pair

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


# Relative margin every fs_row decision in the ledger's non-tie runs must
# clear, so that no recorded index depends on how a residual was rounded.
_DECISION_MARGIN = 1e-9


def _gaps(target, fbb, pset, init, expected):
    """Every decision gap of a replayed fs_row call, whose result must be
    the one fs_row gave."""
    gaps = []
    idx, res, steps = _exhaustive_fs_row(target, fbb, pset, init, gaps)
    assert (idx.tobytes(), res.tobytes(), steps) == (
        expected[0].tobytes(), expected[1].tobytes(), expected[2])
    return gaps


def test_ledger_fs_row_decisions_clear_roundoff(monkeypatch):
    # reruns the 144 fs_altmin/* outputs (n_rf 2-5, none a tie run); each
    # fs_row call, made for n_rf >= 3, is recorded and replayed through the
    # exhaustive sweep, which reports the gap behind every decision that
    # changes indices: winner against runner-up and against the incumbent
    calls, decisions = [], []
    fs_row = beamkit.practical.fs_row

    def recorded(target, fbb, pset, init, owner=None):
        out = fs_row(target, fbb, pset, init, owner)
        per_row = np.array(fbb if owner is None else fbb[owner])  # one per row
        calls.append((np.array(target), per_row, pset, np.array(init), out))
        return out

    monkeypatch.setattr(beamkit.practical, "fs_row", recorded)
    for name, _ in itertools.islice(make_golden.outputs(), 144):
        for k, call in enumerate(calls):
            for t, row, kind, gap in _gaps(*call):
                decisions.append((gap, name.rsplit("/", 1)[0], k, t, row, kind))
        calls.clear()
    assert len({d[1] for d in decisions}) == 36  # N 12/16/32, n_rf 3-5, 4 b
    close = [d for d in decisions if not d[0] > _DECISION_MARGIN]
    assert close == [], "(gap, run, fs_row call, step, row, decision)"
    # the audit sees a tie where there is one: the ledger's tie rows
    pset = beamkit.phase_set(1)
    rng = np.random.default_rng([1, 3])
    fbb = np.ones(3, dtype=complex)
    target = np.sum(fbb * pset.phasors[rng.integers(0, 2, (16, 3))], axis=1)
    init = rng.integers(0, 2, (16, 3))
    tie = _gaps(target, fbb, pset, init, fs_row(target, fbb, pset, init))
    assert min(g[3] for g in tie) == 0.0


def test_ledger_two_chain_decisions_clear_roundoff(monkeypatch):
    # reruns the whole ledger and records every two-chain step of fs_altmin,
    # where a row takes the solved pair when new_res <= old.  Each row whose
    # solved pair differs from its incumbent is a decision; it must be an
    # exact tie, which only the ledger's tie runs have, or clear the margin.
    # A step holds the rows of every entry still alternating, with the live
    # entries' digital vectors fe and each row's entry (owner, None when one
    # entry is left)
    solve, alternate = beamkit.practical._two_rf_solve, beamkit.practical._alternate
    steps, decisions = [], []

    def recorded(gamma, alpha, setup, rows=None):
        out = solve(gamma, alpha, setup, rows)
        caller = sys._getframe(1)
        if caller.f_code is alternate.__code__:  # the incumbent rows it holds
            local = caller.f_locals  # copies: the incumbent may be a view
            steps.append([caller] + [np.array(local[k]) for k in
                                     ("target", "fe", "rows", "live")]
                         + [local["owner"], local["pset"], local["n"], out])
        return out

    monkeypatch.setattr(beamkit.practical, "_two_rf_solve", recorded)
    for name, _ in make_golden.outputs():
        for k, (call, v, fe, idx, live, owner, pset, n, (i1, i2, new)) in enumerate(steps):
            f = fe[0] if owner is None else fe[owner]
            old = np.abs(v - f[..., 0] * pset.phasors[idx[:, 0]]
                         - f[..., 1] * pset.phasors[idx[:, 1]])
            if k + 1 < len(steps) and steps[k + 1][0] is call:  # the next step
                kept = np.where((new <= old)[:, None], np.column_stack([i1, i2]), idx)
                still = np.repeat(np.isin(live, steps[k + 1][4]), n)
                assert np.array_equal(steps[k + 1][3], kept[still]), "replay differs"
            moved = (i1 != idx[:, 0]) | (i2 != idx[:, 1])
            old, new = old[moved], new[moved]
            gap = np.divide(abs(old - new), np.maximum(old, new),
                            out=np.zeros_like(old), where=old != new)
            decisions += [(g, name.split("/")[0]) for g in gap]
        steps.clear()
    assert {run for _, run in decisions} == {"fs_altmin", "ps-icd-2rf", "ties",
                                             "campaign", "cli"}
    assert len(decisions) == 9910
    assert [run for g, run in decisions if g == 0.0] == ["ties"] * 5
    close = [d for d in decisions if 0.0 < d[0] <= _DECISION_MARGIN]
    assert close == [], "(gap, run)"


def _relative_gap(values):
    """(largest - second largest) / largest of a flat array."""
    top = np.sort(values, axis=None)[-2:]
    return (top[1] - top[0]) / top[1]


def test_ledger_campaign_decisions_clear_roundoff(monkeypatch):
    # reruns the ledger's campaigns (32/16, 32/8 and 16/16, both halves, 0 dB
    # and +inf) and records the gap behind every selection: each descent
    # layer's best measured power against its second best, and each trial's
    # exhaustive best score against its runner-up
    channel = beamkit.channel
    measure, search = channel.measure, channel.hierarchical_search
    best_pair = channel.exhaustive_best_pair
    powers, descent, scored = [], [], []

    def recorded_measure(*args):
        powers.append(measure(*args))
        return powers[-1]

    def recorded_search(tx_cb, rx_cb, *args):
        out = search(tx_cb, rx_cb, *args)
        m, joint = tx_cb.m, rx_cb.s
        sizes = [m * m] * joint + [m] * (tx_cb.s - joint)
        starts = np.cumsum([0] + sizes)
        assert starts[-1] == len(powers) == out[2]
        descent.append([_relative_gap(powers[a:b])
                        for a, b in zip(starts, starts[1:])])
        powers.clear()
        return out

    def scored_best_pair(tx_cb, rx_cb, ch, practical):
        out = best_pair(tx_cb, rx_cb, ch, practical)
        ti, ri, scores = _reference_best_pair(
            [e.codeword(practical) for e in tx_cb.bottom],
            [e.codeword(practical) for e in rx_cb.bottom], ch.matrix)
        assert (ti, ri) == out
        scored.append(_relative_gap(scores))
        return out

    monkeypatch.setattr(channel, "measure", recorded_measure)
    monkeypatch.setattr(channel, "hierarchical_search", recorded_search)
    monkeypatch.setattr(channel, "exhaustive_best_pair", scored_best_pair)
    close, audited = [], 0
    for link, halves in make_golden.campaign_links().items():
        for half, args in halves.items():
            for snr, cfg in make_golden.campaign_configs(*args):
                beamkit.success_rate(cfg)
                for kind, gaps in (("descent", np.array(descent)),
                                   ("best pair", np.array(scored))):
                    trials = np.nonzero(gaps <= _DECISION_MARGIN)[0]
                    close += [(g, link, half, snr, kind, int(t)) for g, t in
                              zip(gaps[gaps <= _DECISION_MARGIN], trials)]
                    audited += gaps.size
                descent.clear()
                scored.clear()
    assert audited == 5600 + 1200  # descent layers, then trials
    assert close == [], "(gap, link, half, snr, gap kind, trial)"

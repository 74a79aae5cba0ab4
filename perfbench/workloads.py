"""Benchmark workloads: seeded inputs, the timed operation, and checks.

A workload is driven only through beamkit's public API.  It has a
set-up, which the harness repeats to time it; an operation on one of
`inputs` fixed inputs derived from the run's seed, which the timed loop
cycles over; checks on every output, run outside the timed region; and
quality figures computed from the first run of each input, so that they
depend on the seed and never on how fast the machine is.
"""

import hashlib
import json
import os
import statistics
from dataclasses import dataclass, field

import numpy as np

import beamkit as bk
import beamkit.serialization as ser

SNR_GRID = (-10.0, -5.0, 0.0, 5.0, 10.0)
PATHS = 3
NORM_TOL = 1e-9


def derived_seed(*parts):
    """A 32-bit seed drawn from the run seed and a position."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


@dataclass
class Tally:
    """Checked items (entries, trials, whole-run checks) and failures."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok, what, items=1):
        self.attempted += items
        if not ok:
            self.failed += items
            if len(self.problems) < 20:
                self.problems.append(what)


def _unit_codeword(v):
    v = np.asarray(v)
    return bool(np.all(np.isfinite(v))) and abs(np.linalg.norm(v) - 1.0) <= NORM_TOL


def check_codebook(cb, tally, label):
    """Every codeword finite and unit-norm, every phase index in [0, 2^b)."""
    for s, layer in enumerate(cb.layers, 1):
        for i, e in enumerate(layer, 1):
            ok = _unit_codeword(e.ideal)
            if cb.hw is not None:
                h = e.hybrid
                ok = (
                    ok
                    and h is not None
                    and h.bits == cb.hw["b"]
                    and bool(np.all((h.phase_indices >= 0)
                                    & (h.phase_indices < 2**h.bits)))
                    and _unit_codeword(h.realized)
                )
            tally.check(ok, f"{label}: layer {s} entry {i} is not a valid codeword")


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def identical_codebooks(a, b):
    """Bit-for-bit equality of two codebooks, header included."""
    if (a.n, a.m, a.seed, a.method, a.hw) != (b.n, b.m, b.seed, b.method, b.hw):
        return False
    if [len(layer) for layer in a.layers] != [len(layer) for layer in b.layers]:
        return False
    for la, lb in zip(a.layers, b.layers):
        for ea, eb in zip(la, lb):
            if tuple(ea.coverage) != tuple(eb.coverage):
                return False
            if not _same_bits(ea.ideal, eb.ideal):
                return False
            if (ea.hybrid is None) != (eb.hybrid is None):
                return False
            if ea.hybrid is not None and not (
                ea.hybrid.bits == eb.hybrid.bits
                and _same_bits(ea.hybrid.phase_indices, eb.hybrid.phase_indices)
                and _same_bits(ea.hybrid.digital, eb.hybrid.digital)
            ):
                return False
    return True


def codebook_digest(cb, workdir):
    """sha256 of the codebook as save_codebook writes it."""
    path = os.path.join(workdir, "digest.json")
    ser.save_codebook(cb, path)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def synthesized(cb):
    """Entries designed by ps_icd/ls_icd: every layer whose sectors are
    wider than 2/n (narrower ones are plain steering vectors)."""
    for s, layer in enumerate(cb.layers, 1):
        if 2.0 / cb.m**s != 2.0 / cb.n:
            yield from layer


def codebook_quality(codebooks):
    """Deviation of the practical codewords and main-lobe MSE of the ideal
    ones, over the synthesized entries of the given codebooks."""
    devs, mses = [], []
    for cb in codebooks:
        for e in synthesized(cb):
            mses.append(bk.main_lobe_mse(e.ideal, bk.make_target("rect", e.coverage)))
            if e.hybrid is not None:
                devs.append(bk.deviation(e.ideal, e.hybrid.realized))
    return {
        "deviation_median": statistics.median(devs),
        "deviation_max": max(devs),
        "main_lobe_mse_mean": statistics.fmean(mses),
    }


def campaign_point(tx, rx, snr_db, trials, seed, practical):
    return bk.success_rate(bk.TrainingConfig(
        tx_codebook=tx, rx_codebook=rx, snr_db=snr_db, trials=trials,
        seed=seed, paths=PATHS, use_practical=practical,
    ))


def check_trials(out, expected, tally, label):
    """Each trial issued exactly `expected` measurements; returns a digest
    of the per-trial selections."""
    h = hashlib.sha256()
    for r in out["records"]:
        tally.check(r["measurements"] == expected,
                    f"{label}: trial {r['trial']} made {r['measurements']} "
                    f"measurements, expected {expected}")
        h.update(json.dumps([r["selected"], r["best"], r["success"],
                             r["measurements"]]).encode())
    return h.hexdigest()


class CodebookWorkload:
    """Repeated build_codebook calls over `inputs` master seeds.

    Four RF chains, so every antenna row goes through fs_row.  fs_altmin's
    outer loop is capped at 2 so that a run repeats every input several
    times: one build then takes 0.9-1.8 s, where at the default cap of 50
    it took 5.8-10.4 s depending on the seed.  Set-up builds `warm_builds`
    4-antenna codebooks with the same design settings, so that every code
    path is loaded and warm before timing; the cost of one such build
    varies by half with its seed, so several are made to even that out.
    """

    n = 16
    hw = {"n_rf": 4, "b": 6, "t_max": 2}
    unit_ops = 1
    inputs = 4
    warm_builds = 4
    items_per_op = sum(2**s for s in range(1, bk.layer_count(n, 2) + 1))

    def _build(self, n, seed):
        return bk.build_codebook(n, m=2, k=128, r_max=2000, seed=seed,
                                 method="ps-icd", hw=self.hw)

    def setup(self, seed, workdir):
        return {"seed": seed, "workdir": workdir,
                "warm": [self._build(4, derived_seed(seed, 0, j))
                         for j in range(self.warm_builds)]}

    def setup_digest(self, state):
        return [codebook_digest(cb, state["workdir"]) for cb in state["warm"]]

    def check_setup(self, state, tally):
        for j, cb in enumerate(state["warm"]):
            check_codebook(cb, tally, f"warm-up codebook {j}")

    def op(self, state, i):
        return self._build(self.n, derived_seed(state["seed"], 1, i))

    def check(self, state, i, cb, tally):
        check_codebook(cb, tally, f"build {i}")
        return codebook_digest(cb, state["workdir"])

    def check_round_trip(self, state, cb, tally):
        path = os.path.join(state["workdir"], "round_trip.json")
        ser.save_codebook(cb, path)
        tally.check(identical_codebooks(cb, ser.load_codebook(path)),
                    "loaded codebook differs from the built one")

    def quality(self, state, kept, tally):
        self.check_round_trip(state, kept[0], tally)
        return codebook_quality(kept)

    def rates(self, outs):
        return {}


class TrainingWorkload:
    """A Fig.-6-style campaign, as `beamkit simulate` runs it.

    Set-up builds the transmit (N_t, seed s) and receive (N_r, seed s+1)
    codebooks, ps-icd with two RF chains for the practical half and
    ls-icd for the ideal half, and round-trips them through
    save_codebook/load_codebook.  One operation is one SNR point of a
    campaign: a practical and an ideal success_rate call of `trials`
    trials each.  The inputs are the SNR points of one campaign, whose
    trial seed is derived from the run seed.
    """

    n_t, n_r, trials = 32, 16, 100
    unit_ops = inputs = len(SNR_GRID)
    items_per_op = 2 * trials
    expected = bk.training_test_count(n_t, n_r, 2)

    def setup(self, seed, workdir):
        hw = {"n_rf": 2, "b": 6}
        built = {
            "tx": bk.build_codebook(self.n_t, seed=seed, hw=hw),
            "rx": bk.build_codebook(self.n_r, seed=seed + 1, hw=hw),
            "tx_ls": bk.build_codebook(self.n_t, seed=seed, method="ls-icd"),
            "rx_ls": bk.build_codebook(self.n_r, seed=seed + 1, method="ls-icd"),
        }
        loaded = {}
        for key, cb in built.items():
            path = os.path.join(workdir, f"{key}.json")
            ser.save_codebook(cb, path)
            loaded[key] = ser.load_codebook(path)
        return {"seed": seed, "workdir": workdir, "built": built, "loaded": loaded}

    def setup_digest(self, state):
        return [codebook_digest(cb, state["workdir"])
                for cb in state["loaded"].values()]

    def check_setup(self, state, tally):
        for key, cb in state["loaded"].items():
            tally.check(identical_codebooks(state["built"][key], cb),
                        f"loaded {key} codebook differs from the built one")
            check_codebook(cb, tally, f"{key} codebook")

    def op(self, state, i):
        cb = state["loaded"]
        seed = derived_seed(state["seed"], 3, 0)
        snr = SNR_GRID[i]
        return (
            campaign_point(cb["tx"], cb["rx"], snr, self.trials, seed, True),
            campaign_point(cb["tx_ls"], cb["rx_ls"], snr, self.trials, seed, False),
        )

    def check(self, state, i, out, tally):
        return [check_trials(half, self.expected, tally, f"point {i} {label}")
                for half, label in zip(out, ("practical", "ideal"))]

    def quality(self, state, kept, tally):
        return {**codebook_quality(state["loaded"].values()), **self.rates(kept)}

    def rates(self, outs):
        """Success rate of each half, averaged over the SNR points."""
        return {
            "success_rate_practical": statistics.fmean(p["rate"] for p, _ in outs),
            "success_rate_ideal": statistics.fmean(q["rate"] for _, q in outs),
        }


WORKLOADS = {
    "codebook-sweep": CodebookWorkload(),
    "training": TrainingWorkload(),
}

"""Golden-output ledger for the codeword designs and the training simulator.

Every named output of a fixed, seeded set of runs is reduced to a sha256
over its dtype, shape and bytes, so a change that moves any output by one
bit, or changes its dtype, shows up by name.  The runs are:

- fs_altmin phase indices, digital weights and residual trace at
  N = 12/16/32, n_rf = 2..5 and b = 1/2/4/6, with a short t_max;
- two codebook builds shaped like the benchmark's codebook-sweep
  (N = 16, 4 RF chains, 6 bits, t_max = 2);
- one ps-icd codebook with two RF chains at N = 16;
- ps-icd and ls-icd ideal codebooks at N = 8 and N = 32, without hardware;
  every codebook with hardware also hashes each entry's realized codeword;
- tie runs: fs_row on targets that the quantized phases represent exactly,
  with equal digital entries (b = 1/2, n_rf = 3/4), and two-chain fs_altmin
  on such vectors, where equal candidates make the tie and acceptance
  rules decide the result;
- one 100-trial success_rate per half (practical ps-icd with two RF
  chains, ideal ls-icd) at N_t/N_r = 32/16, 3 paths, SNR 0 dB and +inf:
  each trial's selected pair, best pair, success and measurement count;
- seeded measure powers, practical and ideal codewords, at SNR -10, 0,
  +inf and -inf dB: every transmit entry of layer s against every receive
  entry of layer min(s, s_r), over two 3-path channels at N_t/N_r = 32/16;
- exhaustive_best_pair over 20 channels per half at N_t/N_r = 32/16,
  32/8 and 16/16;
- the same 100-trial success_rate record sets at N_t/N_r = 32/8 and 16/16;
- the matrix of every channel drawn above (seeds [11, c] and [17, c]), at
  N_t/N_r = 32/16, 32/8 and 16/16;
- the save_codebook file bytes of every codebook built above;
- the two-phasor kernel (practical._two_rf_solve, with _two_rf_setup of
  the digital entries) with one or both of them exactly 0, at b = 1/2/6:
  the residuals and the live chain's indices (the zero-weight chain's are
  not hashed, since it adds nothing);
- the files and stdout of every beamkit command, run through
  beamkit.cli.main at N = 4/8 with r_max 100 and 20 trials, with list
  options given as flags and in --config files.

    PYTHONPATH=src python tests/golden/make_golden.py

rewrites manifest.json next to this file.

    PYTHONPATH=src python tests/golden/make_golden.py --check

recomputes every output without writing and lists every name whose digest
differs from the manifest, names missing from either side, names computed
more than once, and the first output computed out of manifest order; it
exits 1 if there is any.
tests/test_golden.py runs the same check.  The manifest also records the
numpy version and the CPU SIMD features numpy dispatches to, since some
outputs depend on them in the last bit.  Regenerate the manifest only in
a commit of its own, with its reason in CHANGES.md; a refactor must pass
against the manifest it found.
"""

import argparse
import collections
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from beamkit import (
    TrainingConfig,
    build_codebook,
    draw_channel,
    exhaustive_best_pair,
    fs_altmin,
    fs_row,
    make_target,
    measure,
    phase_set,
    ps_icd,
    success_rate,
)
from beamkit.cli import main as cli_main
from beamkit.practical import _two_rf_setup, _two_rf_solve
from beamkit.serialization import save_codebook

MANIFEST = Path(__file__).resolve().parent / "manifest.json"

SIZES = (12, 16, 32)
CHAINS = (2, 3, 4, 5)
BITS = (1, 2, 4, 6)
T_MAX = 4
SWEEP_SEEDS = (1, 2)
SWEEP_HW = {"n_rf": 4, "b": 6, "t_max": 2}
TIE_ROWS = 16
CAMPAIGN_SNRS = (0.0, np.inf)
MEASURE_SNRS = (-10.0, 0.0, np.inf, -np.inf)
MEASURE_CHANNELS = 2
BEST_PAIR_CHANNELS = 20
LINKS = {"32x16": (32, 16), "32x8": (32, 8), "16x16": (16, 16)}
# (label, config file content or None, argv, files written); paths are
# relative to the directory the commands run in
CLI_RUNS = [
    ("design-ideal/ps-icd", None,
     ["design-ideal", "--n", "8", "--rmax", "100", "--out", "v8.json",
      "--pattern-csv", "v8.csv"], ["v8.json", "v8.csv"]),
    ("design-ideal/ls-icd-triangular", None,
     ["design-ideal", "--n", "8", "--method", "ls-icd", "--target",
      "triangular", "--cover=-0.5:0.5", "--out", "tri.json",
      "--pattern-csv", "tri.csv"], ["tri.json", "tri.csv"]),
    ("design-ideal/step", None,
     ["design-ideal", "--n", "4", "--target", "step", "--heights", "1,3",
      "--split", "0.4", "--k", "32", "--rmax", "100", "--out", "step.json",
      "--pattern-csv", "step.csv"], ["step.json", "step.csv"]),
    ("design-ideal/step-config",
     {"target": "step", "heights": "1,3", "split": 0.4, "cover": "-0.5:0.5",
      "k": 32, "rmax": 100},
     ["design-ideal", "--n", "4", "--out", "stepc.json",
      "--pattern-csv", "stepc.csv"], ["stepc.json", "stepc.csv"]),
    ("design-practical/nrf2", None,
     ["design-practical", "--input", "v8.json", "--nrf", "2", "--bits", "4",
      "--tmax", "20", "--out", "h8.json"], ["h8.json"]),
    ("design-practical/nrf1-2-3", None,
     ["design-practical", "--input", "v8.json", "--nrf", "1,2,3", "--bits",
      "2", "--tmax", "20", "--seeds", "2", "--seed", "3"], []),
    ("build-codebook/hw-n8", None,
     ["build-codebook", "--n", "8", "--k", "64", "--rmax", "100", "--nrf",
      "2", "--bits", "4", "--tmax", "20", "--out", "cb8.json"], ["cb8.json"]),
    ("build-codebook/ls-icd-n4", None,
     ["build-codebook", "--n", "4", "--k", "32", "--method", "ls-icd",
      "--out", "cb4.json"], ["cb4.json"]),
    ("simulate/practical", None,
     ["simulate", "--tx-codebook", "cb8.json", "--rx-codebook", "cb8.json",
      "--snr=-5,0,inf", "--trials", "20", "--paths", "2", "--practical",
      "--record-trials", "--out", "sp.csv"], ["sp.csv", "sp.csv.trials.json"]),
    ("simulate/ideal-config", {"snr": "0,inf", "trials": 20, "seed": 4},
     ["simulate", "--tx-codebook", "cb8.json", "--rx-codebook", "cb4.json",
      "--record-trials", "--out", "si.csv"], ["si.csv", "si.csv.trials.json"]),
    ("pattern", None,
     ["pattern", "--input", "v8.json", "--points", "64", "--out", "pat.csv"],
     ["pat.csv"]),
    ("table1", None, ["table1", "--sizes", "4,8", "--rmax", "100"], []),
    ("table1/config", {"table1": {"sizes": "8", "k": 64}},
     ["table1", "--rmax", "100", "--seed", "2"], []),
]


def digest(array):
    """sha256 over an array's dtype, shape and contiguous bytes."""
    a = np.ascontiguousarray(array)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def environment():
    """The numpy version and the CPU SIMD features numpy has enabled."""
    from numpy._core._multiarray_umath import __cpu_features__

    return {
        "numpy": np.__version__,
        "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
    }


def _codebook_outputs(label, cb):
    for s, layer in enumerate(cb.layers, 1):
        yield f"{label}/layer{s}/ideal", np.stack([e.ideal for e in layer])
        if cb.hw is not None:
            yield (f"{label}/layer{s}/indices",
                   np.stack([e.hybrid.phase_indices for e in layer]))
            yield (f"{label}/layer{s}/digital",
                   np.stack([e.hybrid.digital for e in layer]))
            yield (f"{label}/layer{s}/realized",
                   np.stack([e.hybrid.realized for e in layer]))


def _tie_outputs():
    for b in (1, 2):
        pset = phase_set(b)
        phasors = np.exp(1j * pset.values)
        for n_rf in (3, 4):
            rng = np.random.default_rng([b, n_rf])
            fbb = np.ones(n_rf, dtype=complex)
            exact = rng.integers(0, pset.size, (TIE_ROWS, n_rf))
            target = np.sum(fbb * phasors[exact], axis=1)
            init = rng.integers(0, pset.size, (TIE_ROWS, n_rf))
            idx, res, _ = fs_row(target, fbb, pset, init)
            yield f"ties/fs_row/b{b}/nrf{n_rf}/indices", idx
            yield f"ties/fs_row/b{b}/nrf{n_rf}/residuals", res
        rng = np.random.default_rng([b, 2])
        v = phasors[rng.integers(0, pset.size, (8, 2))] @ np.ones(2, dtype=complex)
        h = fs_altmin(v, 2, b, t_max=6, seed=0)
        yield f"ties/fs_altmin/b{b}/nrf2/indices", h.phase_indices
        yield f"ties/fs_altmin/b{b}/nrf2/digital", h.digital


def campaign_configs(tx, rx, practical):
    """(snr, TrainingConfig) of each ledger campaign on one pair of codebooks."""
    for snr in CAMPAIGN_SNRS:
        yield snr, TrainingConfig(tx, rx, snr, 100, seed=7, paths=3,
                                  use_practical=practical)


def campaign_links():
    """The codebooks of the ledger's campaigns and best-pair runs, as
    {link: {half: (tx, rx, practical)}}.  The ideal transmit codebook at
    N_t = 32 is the ledger's ls-icd/n32 one."""
    hw = {"n_rf": 2, "b": 6}
    tx, rx, tx16, rx8 = (build_codebook(n, seed=5, hw=hw) for n in (32, 16, 16, 8))
    ls_tx32 = build_codebook(32, seed=4, method="ls-icd")
    rx_ls, rx8_ls = (build_codebook(n, seed=5, method="ls-icd") for n in (16, 8))
    return {
        "32x16": {"practical": (tx, rx, True), "ideal": (ls_tx32, rx_ls, False)},
        "32x8": {"practical": (tx, rx8, True), "ideal": (ls_tx32, rx8_ls, False)},
        "16x16": {"practical": (tx16, rx, True),
                  "ideal": (build_codebook(16, seed=6, method="ls-icd"), rx_ls,
                            False)},
    }


def _campaign_outputs(label, tx, rx, practical):
    for snr, cfg in campaign_configs(tx, rx, practical):
        out = success_rate(cfg)
        records = np.array([r["selected"] + r["best"]
                            + [r["success"], r["measurements"]]
                            for r in out["records"]], dtype=np.int64)
        yield f"{label}/snr{snr:g}/records", records


def _measure_outputs(label, tx, rx, practical):
    """Powers of every tx entry of layer s against every rx entry of layer
    min(s, s_r), in that order, one noise stream per channel and SNR."""
    for c in range(MEASURE_CHANNELS):
        ch = draw_channel(tx.n, rx.n, 3, seed=[11, c])
        for snr in MEASURE_SNRS:
            rng = np.random.default_rng([13, c])
            powers = [
                measure(a.codeword(practical), b.codeword(practical), ch, snr,
                        rng)
                for s, layer in enumerate(tx.layers)
                for a in layer
                for b in rx.layers[min(s, rx.s - 1)]
            ]
            yield (f"{label}/channel{c}/snr{snr:g}/powers",
                   np.asarray(powers, dtype=float))


def _best_pair_outputs(label, tx, rx, practical):
    pairs = [
        exhaustive_best_pair(tx, rx, draw_channel(tx.n, rx.n, 3, seed=[17, c]),
                             practical)
        for c in range(BEST_PAIR_CHANNELS)
    ]
    yield f"{label}/pairs", np.asarray(pairs, dtype=np.int64)


def _channel_outputs():
    """The matrix of every channel the measure and best-pair runs draw."""
    for link, (n_t, n_r) in LINKS.items():
        for prefix, count in ((11, MEASURE_CHANNELS), (17, BEST_PAIR_CHANNELS)):
            for c in range(count):
                ch = draw_channel(n_t, n_r, 3, seed=[prefix, c])
                yield f"channel/{link}/seed{prefix}-{c}/matrix", ch.matrix


def _codebook_file_outputs(books):
    """The bytes save_codebook writes for each codebook, by label."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "codebook.json"
        for label, cb in books.items():
            save_codebook(cb, path)
            yield (f"codebook_file/{label}",
                   np.frombuffer(path.read_bytes(), dtype=np.uint8))


def _two_rf_zero_outputs():
    """The two-phasor kernel with one or both digital entries exactly 0."""
    rng = np.random.default_rng(19)
    gamma = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    gamma[0] = 0.0
    f = complex(rng.standard_normal(), rng.standard_normal())
    # (label, f1, f2, live chain: 0 or 1, or None when both are zero)
    cases = (("f2zero", f, 0j, 0), ("f1zero", 0j, f, 1), ("both", 0j, 0j, None))
    for b in (1, 2, 6):
        for label, f1, f2, live in cases:
            out = _two_rf_solve(gamma, np.abs(gamma), _two_rf_setup(f1, f2, phase_set(b)))
            yield f"two_rf_zero/b{b}/{label}/residuals", out[2]
            if live is not None:
                yield f"two_rf_zero/b{b}/{label}/live", out[live]


def _cli_outputs():
    """Files and stdout of every command, run in a scratch directory."""
    results = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for label, conf, argv, files in CLI_RUNS:
            if conf is not None:
                Path("conf.json").write_text(json.dumps(conf))
                argv = [*argv, "--config", "conf.json"]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                rc = cli_main(argv)
            if rc != 0:
                raise RuntimeError(f"beamkit {' '.join(argv)} exited {rc}")
            for name in ("stdout", *files):
                text = (stdout.getvalue().encode() if name == "stdout"
                        else Path(name).read_bytes())
                results.append((f"cli/{label}/{name}",
                                np.frombuffer(text, dtype=np.uint8)))
    return results


def outputs():
    """(name, array) for every ledger output, in manifest order."""
    books = {}
    target = make_target("rect", (-1.0, 0.0))
    for n in SIZES:
        v = ps_icd(target, n, 2 * n, 200, seed=0)
        for n_rf in CHAINS:
            for b in BITS:
                trace = []
                h = fs_altmin(v, n_rf, b, t_max=T_MAX, seed=n_rf + b, trace=trace)
                label = f"fs_altmin/n{n}/nrf{n_rf}/b{b}"
                yield f"{label}/indices", h.phase_indices
                yield f"{label}/digital", h.digital
                yield f"{label}/trace", np.asarray(trace, dtype=float)
    for seed in SWEEP_SEEDS:
        label = f"sweep/seed{seed}"
        books[label] = build_codebook(16, m=2, k=128, r_max=2000, seed=seed,
                                      method="ps-icd", hw=SWEEP_HW)
        yield from _codebook_outputs(label, books[label])
    books["ps-icd-2rf/n16"] = build_codebook(16, seed=3, method="ps-icd",
                                             hw={"n_rf": 2, "b": 6})
    yield from _codebook_outputs("ps-icd-2rf/n16", books["ps-icd-2rf/n16"])
    for method in ("ps-icd", "ls-icd"):
        for n in (8, 32):
            books[f"{method}/n{n}"] = build_codebook(n, seed=4, method=method)
            yield from _codebook_outputs(f"{method}/n{n}", books[f"{method}/n{n}"])
    yield from _tie_outputs()
    links = campaign_links()
    halves = links["32x16"]
    yield from _campaign_outputs("campaign/practical", *halves["practical"])
    yield from _campaign_outputs("campaign/ideal", *halves["ideal"])
    for half, args in halves.items():
        yield from _measure_outputs(f"measure/{half}/32x16", *args)
    for link, link_halves in links.items():
        for half, args in link_halves.items():
            yield from _best_pair_outputs(f"best_pair/{half}/{link}", *args)
    for link in ("32x8", "16x16"):
        for half, args in links[link].items():
            yield from _campaign_outputs(f"campaign/{half}/{link}", *args)
    yield from _channel_outputs()
    # links["16x16"]["practical"][0] is built from the same inputs as the
    # 32x16 receive codebook, so it is not hashed twice
    (tx, rx, _), (_, rx_ls, _) = halves.values()
    books.update({"hw/n32/seed5": tx, "hw/n16/seed5": rx,
                  "hw/n8/seed5": links["32x8"]["practical"][1],
                  "ls-icd/n16/seed5": rx_ls,
                  "ls-icd/n8/seed5": links["32x8"]["ideal"][1],
                  "ls-icd/n16/seed6": links["16x16"]["ideal"][0]})
    yield from _codebook_file_outputs(books)
    yield from _two_rf_zero_outputs()
    yield from _cli_outputs()


def check():
    """Compare every output with the manifest; return the differing names."""
    manifest = json.loads(MANIFEST.read_text())
    expected = manifest["outputs"]
    pairs = [(name, digest(a)) for name, a in outputs()]
    seen = dict(pairs)
    bad = [f"differs: {n}" for n, d in pairs if expected.get(n, d) != d]
    counts = collections.Counter(n for n, _ in pairs)
    bad += [f"computed twice: {n}" for n, c in counts.items() if c > 1]
    bad += [f"not in manifest: {n}" for n in seen if n not in expected]
    bad += [f"not computed: {n}" for n in expected if n not in seen]
    order = zip([n for n in seen if n in expected],
                [n for n in expected if n in seen])
    bad += [f"out of manifest order: {n} where the manifest has {m}"
            for n, m in order if n != m][:1]
    if bad:
        print(f"ledger environment: {manifest['environment']}")
        print(f"this environment:   {environment()}")
    return bad


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="list every output that differs; write nothing")
    if parser.parse_args(argv).check:
        bad = check()
        print("\n".join(bad))
        print(f"{len(bad)} outputs differ from {MANIFEST}")
        return 1 if bad else 0
    manifest = {
        "environment": environment(),
        "outputs": {name: digest(a) for name, a in outputs()},
    }
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"{len(manifest['outputs'])} outputs written to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

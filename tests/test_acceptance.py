"""End-to-end acceptance suite.

Each test prints a single ``ACCEPTANCE <nn> <name>: PASS|FAIL`` line with
the measured numbers, then asserts.  Criteria marked FAIL here are
genuine shortfalls of the published reference values, not skipped checks;
see the repository README for the quantitative analysis.
"""

import itertools

import numpy as np
import pytest

from beamkit import (
    TrainingConfig,
    build_codebook,
    deviation,
    draw_channel,
    fs_altmin,
    fs_row,
    hierarchical_search,
    ls_icd,
    main_lobe_mse,
    make_target,
    phase_set,
    ps_icd,
    steering_matrix,
    success_rate,
    training_test_count,
)
from beamkit.cli import main
from beamkit.ideal import PhaseOptimizer
from beamkit.practical import _two_rf_phases, _two_rf_setup, _two_rf_solve


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} — {detail}")


def _objective(opt):
    """g^H (A^H A) g, the quantity the phase updates maximize (real)."""
    g = opt.gains
    return float(np.real(g.conj() @ opt.gram @ g))


RECT = make_target("rect", (-1.0, 0.0))
SIZES = (16, 32, 64, 128)


@pytest.fixture(scope="module")
def mse_table():
    table = {}
    for n in SIZES:
        # K = N makes A^H A = K I, where the phase objective is constant
        # and PS-ICD has nothing to optimize; N = 128 therefore uses K = 2N
        k = max(128, 2 * n)
        vp = ps_icd(RECT, n, k, 2000, seed=0)
        vl = ls_icd(RECT, n, k)
        table[n] = (main_lobe_mse(vp, RECT), main_lobe_mse(vl, RECT))
    return table


def test_criterion_01_mse_benchmark(mse_table):
    ps_limits = {16: 0.004, 32: 0.002, 64: 0.0015, 128: 0.001}
    ok = True
    parts = []
    for n in SIZES:
        ps, ls = mse_table[n]
        ps_ok = ps <= ps_limits[n]
        ls_ok = 0.015 <= ls <= 0.035
        ok &= ps_ok and ls_ok
        parts.append(f"N={n} ps={ps:.4g}(<= {ps_limits[n]}) ls={ls:.4g}")
    _report(1, "mse-benchmark", ok, "; ".join(parts))
    assert ok


def test_criterion_02_ps_beats_ls(mse_table):
    ok = all(mse_table[n][0] < mse_table[n][1] for n in SIZES)
    detail = "; ".join(
        f"N={n} ps={mse_table[n][0]:.4g} ls={mse_table[n][1]:.4g}"
        for n in SIZES
    )
    _report(2, "ps-beats-ls", ok, detail)
    assert ok


def test_criterion_03_gram_identity():
    worst = 0.0
    for n, k in ((16, 128), (32, 128), (64, 128), (7, 11)):
        sm = steering_matrix(n, k)
        err = np.linalg.norm(sm.matrix @ sm.matrix.conj().T - k * np.eye(n))
        worst = max(worst, err)
    ok = worst < 1e-8
    _report(3, "gram-identity", ok, f"max Frobenius error {worst:.3g}")
    assert ok


def test_criterion_04_monotonicity():
    # (a) phase-update objective across 2000 cyclic updates
    sm = steering_matrix(32, 128)
    rng = np.random.default_rng(0)
    opt = PhaseOptimizer(sm.gram(), RECT(sm.grid),
                         rng.uniform(-np.pi, np.pi, 128))
    worst_a = 0.0
    prev = _objective(opt)
    for i in range(2000):
        opt.update(i % 128)
        cur = _objective(opt)
        worst_a = max(worst_a, (prev - cur) / max(1.0, abs(prev)))
        prev = cur
    # (b) outer fitting residual for 20 seeds, N_RF in {2, 3, 4}, b = 6
    v = ps_icd(RECT, 32, 128, 2000, seed=0)
    worst_b = 0.0
    for n_rf in (2, 3, 4):
        for seed in range(20):
            trace = []
            fs_altmin(v, n_rf, 6, seed=seed, trace=trace)
            worst_b = max(worst_b, float(np.max(np.diff(trace), initial=0.0)))
    ok = worst_a <= 1e-12 and worst_b <= 1e-12
    _report(4, "monotonicity", ok,
            f"worst objective drop {worst_a:.3g} (relative), "
            f"worst residual rise {worst_b:.3g}")
    assert ok


def test_criterion_05_two_rf_oracle():
    pset = phase_set(2)
    rng = np.random.default_rng(0)
    worst_gap = -np.inf
    worst_cont = 0.0
    for _ in range(1000):
        z1, z2 = rng.uniform(0.1, 2.0, 2)
        alpha, beta = rng.uniform(abs(z1 - z2), z1 + z2), rng.uniform(-np.pi, np.pi)
        target = np.array([alpha * np.exp(1j * beta)])
        f1 = z1 * np.exp(1j * rng.uniform(-np.pi, np.pi))
        f2 = z2 * np.exp(1j * rng.uniform(-np.pi, np.pi))
        setup = _two_rf_setup(f1, f2, pset)
        _, _, res = _two_rf_solve(target, np.abs(target), setup)
        best = min(
            abs(target[0] - f1 * np.exp(1j * t1) - f2 * np.exp(1j * t2))
            for t1, t2 in itertools.product(pset.values, repeat=2)
        )
        worst_gap = max(worst_gap, res[0] - best - (z1 + z2) * np.pi / 4)
        # both continuous branches, not only the better one, reach the target
        for th1, th2 in _two_rf_phases(target, np.abs(target), setup):
            cont = abs(target[0] - f1 * np.exp(1j * th1[0])
                       - f2 * np.exp(1j * th2[0]))
            worst_cont = max(worst_cont, cont)
    ok = worst_gap <= 1e-12 and worst_cont < 1e-10
    _report(5, "two-rf-oracle", ok,
            f"worst bound slack {worst_gap:.3g}, "
            f"worst continuous residual {worst_cont:.3g}")
    assert ok


def test_criterion_06_fast_search_oracle():
    pset = phase_set(2)
    rng = np.random.default_rng(1)
    matches = 0
    ratio_ok = True
    for _ in range(1000):
        fbb = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        target = complex(*rng.standard_normal(2))
        _, res, _ = fs_row([target], fbb, pset, rng.integers(0, 4, (1, 3)))
        res = res[0]
        best = min(
            abs(target - np.sum(fbb * np.exp(1j * pset.values[list(c)])))
            for c in itertools.product(range(4), repeat=3)
        )
        matches += res <= best + 1e-9
        ratio_ok &= res <= 1.5 * best + 1e-9
    ok = matches >= 950 and ratio_ok
    _report(6, "fast-search-oracle", ok,
            f"exhaustive matches {matches}/1000, 1.5x bound "
            f"{'held' if ratio_ok else 'violated'}")
    assert ok


def test_criterion_07_deviation_vs_chains():
    v = ps_icd(RECT, 32, 128, 2000, seed=0)
    medians = {}
    for n_rf in (1, 2, 4):  # 20 seeds in one stacked call per chain count
        devs = [deviation(v, h.realized)
                for h in fs_altmin(np.array([v] * 20), n_rf, 6, seed=range(20))]
        medians[n_rf] = float(np.median(devs))
    ok = medians[4] < medians[2] < medians[1]
    _report(7, "deviation-vs-chains", ok,
            f"median E(1)={medians[1]:.4g} E(2)={medians[2]:.4g} "
            f"E(4)={medians[4]:.4g}")
    assert ok


def test_criterion_08_training_count():
    count = training_test_count(16, 8, 2)
    reduction = 1.0 - count / (16 * 8)
    tx = build_codebook(16, m=2, k=64, r_max=400, seed=0)
    rx = build_codebook(8, m=2, k=64, r_max=400, seed=1)
    ch = draw_channel(16, 8, 1, seed=0)
    _, _, measured = hierarchical_search(tx, rx, ch, 0.0,
                                         np.random.default_rng(0))
    ok = count == 14 and abs(reduction - 0.89) < 0.005 and measured == 14
    _report(8, "training-count", ok,
            f"formula {count}, reduction {reduction:.4f}, "
            f"simulator issued {measured}")
    assert ok


@pytest.fixture(scope="module")
def fig6_codebooks():
    cb_ps = build_codebook(32, m=2, k=128, r_max=2000, seed=0,
                           method="ps-icd", hw={"n_rf": 4, "b": 6})
    cb_ls = build_codebook(32, m=2, k=128, r_max=2000, seed=0,
                           method="ls-icd")
    return cb_ps, cb_ls


def test_criterion_09_success_rate_trend(fig6_codebooks):
    cb_ps, cb_ls = fig6_codebooks
    snrs = (-10.0, -5.0, 0.0, 5.0, 10.0)

    def curve(cb, practical):
        rates, cis = [], []
        for snr in snrs:
            out = success_rate(TrainingConfig(
                tx_codebook=cb, rx_codebook=cb, snr_db=snr, trials=500,
                seed=0, paths=1, use_practical=practical))
            rates.append(out["rate"])
            cis.append(out["ci95"])
        return rates, cis

    ps_rates, ps_cis = curve(cb_ps, practical=True)
    ls_rates, ls_cis = curve(cb_ls, practical=False)
    trend = all(
        r2 - r1 >= -2.0 * max(c1, c2)
        for (r1, r2, c1, c2) in zip(
            ps_rates, ps_rates[1:], ps_cis, ps_cis[1:])
    ) and all(
        r2 - r1 >= -2.0 * max(c1, c2)
        for (r1, r2, c1, c2) in zip(
            ls_rates, ls_rates[1:], ls_cis, ls_cis[1:])
    )
    beats = ps_rates[2] > ls_rates[2]
    ok = trend and beats
    _report(9, "success-rate-trend", ok,
            f"practical rates {ps_rates}, baseline rates {ls_rates}, "
            f"0 dB {ps_rates[2]:.3f} vs {ls_rates[2]:.3f}")
    assert ok


def test_criterion_10_cli_determinism(tmp_path):
    def run_all(d):
        d.mkdir()
        outs = {}
        main(["design-ideal", "--n", "16", "--k", "64", "--rmax", "500",
              "--seed", "3", "--out", str(d / "v.json"),
              "--pattern-csv", str(d / "vp.csv")])
        main(["design-practical", "--input", str(d / "v.json"), "--nrf", "2",
              "--bits", "4", "--seed", "3", "--out", str(d / "h.json")])
        main(["build-codebook", "--n", "8", "--k", "64", "--rmax", "400",
              "--nrf", "2", "--bits", "4", "--tmax", "20", "--seed", "3",
              "--out", str(d / "cb.json")])
        main(["simulate", "--codebook", str(d / "cb.json"), "--snr", "0,5",
              "--trials", "20", "--seed", "3", "--out", str(d / "sim.csv"),
              "--record-trials"])
        main(["pattern", "--input", str(d / "v.json"), "--points", "128",
              "--out", str(d / "pat.csv")])
        for name in ("v.json", "vp.csv", "h.json", "cb.json", "sim.csv",
                     "sim.csv.trials.json", "pat.csv"):
            outs[name] = (d / name).read_bytes()
        return outs

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")
    mismatched = [k for k in first if first[k] != second[k]]
    ok = not mismatched
    _report(10, "cli-determinism", ok,
            f"{len(first)} output files compared, mismatches: "
            f"{mismatched or 'none'}")
    assert ok

"""Time beamkit's design paths and record their outputs next to the times.

Each case runs a fixed, seeded call several times and records the median
and quartile distance of its wall times (time.perf_counter) together with
quality numbers (deviation, main-lobe MSE, residuals) and a sha256 over its
outputs, so a speedup that moves a result shows up in the same record.
OpenBLAS is held to one thread.  The cases:

- build_codebook(32, n_rf=4, b=6), end to end;
- fs_altmin at N = 32 with n_rf = 2, 3 and 4;
- one fs_row pass over the 32 rows of an N = 32 codeword, n_rf = 4, b = 6;
- the two-phasor kernel on 2048 targets, b = 6, set-up included:
  practical._two_rf_solve as the public solve_two_rf called it, under that
  case name still, so runs from before and after its removal compare;
- ps_icd at N = 32, K = 128 with 2000 updates;
- a 500-trial success_rate campaign at N_t = N_r = 32, 3 paths, 0 dB,
  practical (ps-icd codebooks, 2 RF chains, 6 bits) and ideal (ls-icd);
- 1000 seeded measure calls on one N_t = 32, N_r = 16, 3-path channel at
  0 dB, cycling over the pairs of bottom-layer steering beams;
- 1000 seeded draw_channel and exhaustive_best_pair calls at N_t = 32,
  N_r = 16, 3 paths, on the practical bottom layers of the campaign's
  codebooks, one spawned seed per call as in success_rate.

    python bench/trajectory.py --label change --out BENCH_11.json
    python bench/trajectory.py --src ../parent/src --label parent --out BENCH_11.json
    python bench/trajectory.py --compare BENCH_11.json:parent BENCH_11.json:change
    python bench/trajectory.py --pair ../parent/src src --rounds 12 \
        --label parent-change --out BENCH_31.json

A run is stored under its label in the output file's "runs", replacing a
run of the same label.  Each run also times perfbench's beamkit-free
reference kernel (perfbench/run.py, imported without writing bytecode)
before and after its cases, and stores each case's median time as a
ratio to the kernel's median ("median_ref"), which cancels the machine's
slow phases as perfbench's op_ref does.  --compare exits 1 when any
quality field or digest of a case in both runs differs, or no case is in
both, and otherwise only reports time ratios, marking a ratio
"unresolved" when the two medians differ by no more than the first run's
quartile distance.

--pair A_SRC B_SRC --rounds R runs each case in a fresh process per side
and round, the sides in the order A B, B A, A B, ... so each side runs
first in half the rounds, and stores the pair under its label in the
output file's "pairs".  Per case it reports the median over rounds of the
paired ratio B/A of the two processes' median_ref and the sign count: B
lower in k of the n rounds whose ratio is not 1.  A case is resolved
"lower" (or "higher") only when a one-sided sign test passes: under no
difference each round is lower with probability 1/2, so the chance of k
or more lower rounds in n, the binomial tail, must be at most SIGN_ALPHA.
With SIGN_ALPHA = 0.01, 12 rounds need 11 lower; 10 rounds need 10.  The
pair exits 1 when any digest or quality field differs between processes.
--case NAME (repeatable) restricts a run or a pair to the named cases.
--toy runs every case at toy sizes, for a smoke test.
"""

import os
import sys

if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

import argparse
import hashlib
import importlib
import importlib.util
import json
import math
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SEED = 0
SIGN_ALPHA = 0.01

# case sizes: n antennas, grid k, r_max, bits, fs_row rows, solve targets,
# codebook hardware; the codebook build uses its own n, k, r_max and hw.
# A case repeats at least `repeats` times and until `seconds` have passed,
# so the fast cases get enough samples for a stable median.
FULL = {"n": 32, "k": 128, "r_max": 2000, "bits": 6, "t_max": 50,
        "targets": 2048, "codebook": {"n": 32, "hw": {"n_rf": 4, "b": 6}},
        "campaign": {"n": 32, "k": 128, "r_max": 2000, "trials": 500,
                     "paths": 3, "snr_db": 0.0, "hw": {"n_rf": 2, "b": 6}},
        "measure": {"n_t": 32, "n_r": 16, "paths": 3, "snr_db": 0.0,
                    "calls": 1000},
        "channel": {"n_t": 32, "n_r": 16, "paths": 3, "calls": 1000,
                    "k": 128, "r_max": 2000, "hw": {"n_rf": 2, "b": 6}},
        "repeats": 5, "seconds": 2.0, "ref_calls": 3}
TOY = {"n": 8, "k": 32, "r_max": 100, "bits": 4, "t_max": 5,
       "targets": 64,
       "codebook": {"n": 8, "k": 32, "r_max": 100,
                    "hw": {"n_rf": 3, "b": 4, "t_max": 5}},
       "campaign": {"n": 8, "k": 32, "r_max": 100, "trials": 20, "paths": 3,
                    "snr_db": 0.0, "hw": {"n_rf": 2, "b": 4, "t_max": 5}},
       "measure": {"n_t": 8, "n_r": 4, "paths": 3, "snr_db": 0.0,
                   "calls": 20},
       "channel": {"n_t": 8, "n_r": 4, "paths": 3, "calls": 20, "k": 32,
                   "r_max": 100, "hw": {"n_rf": 2, "b": 4, "t_max": 5}},
       "repeats": 2, "seconds": 0.0, "ref_calls": 1}


def digest(*arrays):
    """sha256 over each array's dtype, shape and contiguous bytes."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _codeword(bk, size):
    target = bk.make_target("rect", (-0.5, 0.0))
    return bk.ps_icd(target, size["n"], size["k"], size["r_max"], SEED)


def cases(bk, size):
    """(name, untimed set-up, timed call, quality and digest of its result)."""

    def codebook_case():
        def score(cb):
            devs, mses, arrays = [], [], []
            for layer in cb.layers:
                for e in layer:
                    h = e.hybrid
                    arrays += [h.phase_indices, h.digital]
                    if len(layer) < cb.n:  # synthesized, not a steering vector
                        devs.append(bk.deviation(e.ideal, h.realized))
                        mses.append(bk.main_lobe_mse(
                            h.realized, bk.make_target("rect", e.coverage)))
            return ({"deviation_median": statistics.median(devs),
                     "main_lobe_mse_mean": statistics.fmean(mses)},
                    digest(*arrays))

        hw = size["codebook"]["hw"]
        name = (f"build_codebook/n{size['codebook']['n']}"
                f"/nrf{hw['n_rf']}/b{hw['b']}")
        return (name, lambda: None,
                lambda _: bk.build_codebook(seed=SEED, **size["codebook"]),
                score)

    def altmin_case(n_rf):
        def score(h):
            return ({"deviation": bk.deviation(v, h.realized)},
                    digest(h.phase_indices, h.digital))

        v = _codeword(bk, size)
        return (f"fs_altmin/n{size['n']}/nrf{n_rf}/b{size['bits']}",
                lambda: v,
                lambda v: bk.fs_altmin(v, n_rf, size["bits"],
                                       t_max=size["t_max"], seed=SEED),
                score)

    def row_case():
        def setup():
            v = _codeword(bk, size)
            rng = np.random.default_rng(SEED)
            init = rng.integers(0, pset.size, (v.size, 4))
            fbb = bk.ls_fbb(pset.phasors[init], v)
            return v, fbb, init

        def score(result):
            idx, res, steps = result
            return ({"residual_norm": float(np.linalg.norm(res)),
                     "steps": int(steps)},
                    digest(idx, res, np.array(steps)))

        pset = bk.phase_set(size["bits"])
        return (f"fs_row/rows{size['n']}/nrf4/b{size['bits']}", setup,
                lambda a: bk.fs_row(a[0], a[1], pset, a[2]), score)

    def solve_case():
        def setup():
            rng = np.random.default_rng(SEED)
            z = rng.standard_normal((2, size["targets"] + 2))
            gamma = z[0] + 1j * z[1]
            return gamma[2:], gamma[0], gamma[1]

        def score(result):
            i1, i2, res = result
            return ({"residual_mean": float(np.mean(res))},
                    digest(i1, i2, res))

        pset, kernel = bk.phase_set(size["bits"]), bk.practical
        return (f"solve_two_rf/targets{size['targets']}/b{size['bits']}", setup,
                lambda a: kernel._two_rf_solve(a[0], np.abs(a[0]),
                                               kernel._two_rf_setup(a[1], a[2], pset)),
                score)

    def icd_case():
        def score(v):
            return ({"main_lobe_mse": bk.main_lobe_mse(v, target)}, digest(v))

        target = bk.make_target("rect", (-0.5, 0.0))
        return (f"ps_icd/n{size['n']}/k{size['k']}/r{size['r_max']}",
                lambda: None, lambda _: _codeword(bk, size), score)

    def campaign_case(practical):
        def setup():
            design = ({"method": "ps-icd", "hw": c["hw"]} if practical
                      else {"method": "ls-icd"})
            tx, rx = (bk.build_codebook(c["n"], k=c["k"], r_max=c["r_max"],
                                        seed=SEED + i, **design)
                      for i in (0, 1))
            return bk.TrainingConfig(tx, rx, c["snr_db"], c["trials"],
                                     seed=SEED, paths=c["paths"],
                                     use_practical=practical)

        def score(out):
            records = [r["selected"] + r["best"]
                       + [r["success"], r["measurements"]]
                       for r in out["records"]]
            return ({"successes": out["successes"]},
                    digest(np.array(records, dtype=np.int64)))

        c = size["campaign"]
        return (f"success_rate/{'practical' if practical else 'ideal'}"
                f"/n{c['n']}/trials{c['trials']}", setup, bk.success_rate,
                score)

    def measure_case():
        def setup():
            ch = bk.draw_channel(c["n_t"], c["n_r"], c["paths"], seed=SEED)
            beams = [[bk.steering_vector(n, -1.0 + (2 * i + 1) / n)
                      for i in range(n)] for n in (c["n_t"], c["n_r"])]
            pairs = [(beams[0][i % c["n_t"]], beams[1][i // c["n_t"] % c["n_r"]])
                     for i in range(c["calls"])]
            return ch, pairs

        def call(args):
            ch, pairs = args
            rng = np.random.default_rng(SEED)
            return np.array([bk.measure(v, w, ch, c["snr_db"], rng)
                             for v, w in pairs])

        def score(powers):
            return ({"power_mean": float(np.mean(powers))}, digest(powers))

        c = size["measure"]
        return (f"measure/nt{c['n_t']}/nr{c['n_r']}/calls{c['calls']}", setup,
                call, score)

    def channel_case():
        def setup():
            tx, rx = (bk.build_codebook(n, k=c["k"], r_max=c["r_max"],
                                        seed=SEED + i, hw=c["hw"])
                      for i, n in enumerate((c["n_t"], c["n_r"])))
            return tx, rx, np.random.SeedSequence(SEED).spawn(c["calls"])

        def call(args):
            tx, rx, seeds = args
            channels = [bk.draw_channel(c["n_t"], c["n_r"], c["paths"], ss)
                        for ss in seeds]
            return channels, [bk.exhaustive_best_pair(tx, rx, ch, True)
                              for ch in channels]

        def score(result):
            channels, pairs = result
            matrices = [ch.matrix for ch in channels]
            return ({"gain_mean": float(np.mean(np.abs(matrices) ** 2)),
                     "pairs_distinct": len(set(pairs))},
                    digest(*matrices, np.array(pairs, dtype=np.int64)))

        c = size["channel"]
        return (f"channel/nt{c['n_t']}/nr{c['n_r']}/calls{c['calls']}", setup,
                call, score)

    return [codebook_case(), *(altmin_case(n_rf) for n_rf in (2, 3, 4)),
            row_case(), solve_case(), icd_case(), campaign_case(True),
            campaign_case(False), measure_case(), channel_case()]


def time_case(setup, call, score, repeats, seconds):
    """Median and quartile distance of the wall times of at least repeats
    calls lasting at least seconds in all, with the quality and digest of
    the result, which must not change between repeats."""
    args = setup()
    times, seen = [], set()
    while len(times) < repeats or sum(times) < seconds:
        t0 = time.perf_counter()
        result = call(args)
        times.append(time.perf_counter() - t0)
        quality, sha = score(result)
        seen.add(sha)
    if len(seen) != 1:
        raise RuntimeError("outputs differ between repeats")
    q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else (0, 0, 0)
    return {"median_s": statistics.median(times), "iqr_s": q3 - q1,
            "times_s": times, "quality": quality, "sha256": sha}


def _git(path, *args):
    try:
        return subprocess.run(["git", "-C", str(path), *args],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _cpu():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment(src):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    return {"cpu": _cpu(), "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "commit": _git(src, "rev-parse", "HEAD"),
            # tracked files under src changed since that commit: the run
            # timed them (edits elsewhere, to docs or tests, do not count)
            "dirty": bool(_git(src, "status", "--porcelain",
                               "--untracked-files=no", "--", ".")),
            "seed": SEED}


def _reference_kernel():
    """perfbench's reference kernel, loaded from its file without writing
    bytecode next to it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", REPO / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module.reference_kernel


def _time_calls(fn, calls):
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def _import_beamkit(src):
    sys.path.insert(0, str(src))
    try:
        bk = importlib.import_module("beamkit")
    finally:
        sys.path.pop(0)
    if Path(bk.__file__).resolve().parent.parent != Path(src).resolve():
        raise RuntimeError(f"beamkit already imported from {bk.__file__}")
    return bk


def run(src, toy=False, names=None):
    """One run over every case (or the cases named), beamkit imported from
    src, bracketed by timed calls of the reference kernel."""
    size = TOY if toy else FULL
    selected = [c for c in cases(_import_beamkit(src), size)
                if names is None or c[0] in names]
    if names is not None and len(selected) != len(set(names)):
        raise ValueError(f"no case named {sorted(set(names) - {c[0] for c in selected})}")
    kernel = _reference_kernel()
    if not toy:
        kernel()  # the first call pages in its loops
    ref_times = _time_calls(kernel, size["ref_calls"])
    record = {"environment": _environment(src), "toy": toy,
              "min_repeats": size["repeats"], "min_seconds": size["seconds"],
              "cases": {}}
    for name, setup, call, score in selected:
        record["cases"][name] = time_case(setup, call, score,
                                          size["repeats"], size["seconds"])
        print(f"{name}: {record['cases'][name]['median_s']:.4g} s",
              file=sys.stderr)
    ref_times += _time_calls(kernel, size["ref_calls"])
    record["ref_times_s"] = ref_times
    ref = statistics.median(ref_times)
    for case in record["cases"].values():
        case["median_ref"] = case["median_s"] / ref
    return record


def _sign_tail(k, n):
    """P(X >= k) for X ~ Binomial(n, 1/2)."""
    return sum(math.comb(n, i) for i in range(k, n + 1)) / 2**n


def sign_summary(ratios):
    """Median paired ratio, sign counts, one-sided p-values and the
    resolution ("lower", "higher" or None) of per-round ratios B/A."""
    lower = sum(r < 1 for r in ratios)
    higher = sum(r > 1 for r in ratios)
    n = lower + higher  # a ratio of exactly 1 counts for neither side
    p_lower, p_higher = _sign_tail(lower, n), _sign_tail(higher, n)
    resolved = ("lower" if p_lower <= SIGN_ALPHA else
                "higher" if p_higher <= SIGN_ALPHA else None)
    return {"median_ratio": statistics.median(ratios), "lower": lower,
            "higher": higher, "p_lower": p_lower, "p_higher": p_higher,
            "resolved": resolved}


def _worker(src, name, toy):
    """One case run in a fresh process: its record."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--src", str(src),
           "--case", name] + (["--toy"] if toy else [])
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def pair(src_a, src_b, rounds, toy=False, names=None):
    """Paired runs of A and B: for each round and case, one process per
    side, A first in even rounds and B first in odd ones."""
    if names is None:  # the case names, from A's cases at these sizes
        names = [c[0] for c in cases(_import_beamkit(src_a), TOY if toy else FULL)]
    record = {"a": {"src": str(src_a), "environment": _environment(src_a)},
              "b": {"src": str(src_b), "environment": _environment(src_b)},
              "rounds": rounds, "toy": toy, "sign_alpha": SIGN_ALPHA,
              "cases": {name: {"a": [], "b": []} for name in names}}
    for r in range(rounds):
        order = (("a", src_a), ("b", src_b))
        for name in names:
            for side, src in order if r % 2 == 0 else order[::-1]:
                case = _worker(src, name, toy)["cases"][name]
                del case["times_s"]
                record["cases"][name][side].append(case)
        print(f"round {r + 1} of {rounds} done", file=sys.stderr)
    for case in record["cases"].values():
        case.update(sign_summary([b["median_ref"] / a["median_ref"]
                                  for a, b in zip(case["a"], case["b"])]))
        outputs = {(c["sha256"], json.dumps(c["quality"], sort_keys=True))
                   for c in case["a"] + case["b"]}
        case["outputs_equal"] = len(outputs) == 1
    return record


def report_pair(record):
    """Print one line per case; 1 if any case's outputs differ."""
    status = 0
    for name, case in record["cases"].items():
        n = case["lower"] + case["higher"]
        note = "" if case["outputs_equal"] else "  DIFFERS"
        print(f"{name}: B/A x{case['median_ratio']:.3f}, lower in "
              f"{case['lower']} of {n} (p {case['p_lower']:.3g}), higher in "
              f"{case['higher']} (p {case['p_higher']:.3g}): "
              f"{case['resolved'] or 'unresolved'}{note}")
        status |= not case["outputs_equal"]
    return status


def _load_run(spec):
    """A run from PATH (the file's last run) or PATH:LABEL."""
    path, label = spec, None
    if not Path(spec).is_file() and ":" in spec:
        path, label = spec.rsplit(":", 1)
    runs = json.loads(Path(path).read_text())["runs"]
    if label is None:
        label = list(runs)[-1]
    if label not in runs:
        raise ValueError(f"{path} has no run {label!r}; it has {list(runs)}")
    return runs[label]


def compare(spec_a, spec_b):
    """Report B's time over A's per case, unresolved where the medians differ
    by no more than A's quartile distance; 1 if any quality or digest
    differs, or if the runs share no case."""
    a, b = _load_run(spec_a)["cases"], _load_run(spec_b)["cases"]
    status = 0 if a.keys() & b.keys() else 1
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            print(f"{name}: only in {spec_a if name in a else spec_b}")
            continue
        ca, cb = a[name], b[name]
        diff = [k for k in ca["quality"].keys() | cb["quality"].keys()
                if ca["quality"].get(k) != cb["quality"].get(k)]
        if ca["sha256"] != cb["sha256"]:
            diff.append("sha256")
        ratio = cb["median_s"] / ca["median_s"]
        # a move no larger than A's own spread cannot be told from noise
        noise = abs(cb["median_s"] - ca["median_s"]) <= ca["iqr_s"]
        note = f"  DIFFERS: {', '.join(sorted(diff))}" if diff else ""
        print(f"{name}: {ca['median_s']:.4g} s -> {cb['median_s']:.4g} s "
              f"(x{ratio:.3f}{', unresolved' if noise else ''}){note}")
        status |= bool(diff)
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=str(REPO / "src"),
                   help="directory beamkit is imported from")
    p.add_argument("--label", default="run", help="name of this run")
    p.add_argument("--out", help="JSON file the run is stored in")
    p.add_argument("--toy", action="store_true", help="toy sizes")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two stored runs, PATH or PATH:LABEL")
    p.add_argument("--pair", nargs=2, metavar=("A_SRC", "B_SRC"),
                   help="paired runs, one process per case, side and round")
    p.add_argument("--rounds", type=int, default=12,
                   help="rounds of a paired run")
    p.add_argument("--case", action="append", dest="cases", metavar="NAME",
                   help="run only this case (repeatable)")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.pair:
        if args.rounds < 1:
            p.error("--rounds must be >= 1")
        record, key = pair(*args.pair, args.rounds, args.toy, args.cases), "pairs"
        status = report_pair(record)
    else:
        record, key = run(args.src, args.toy, args.cases), "runs"
        status = 0
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc.setdefault(key, {})[args.label] = record
        path.write_text(json.dumps(doc, indent=1) + "\n")
    elif not args.pair:
        json.dump(record, sys.stdout, indent=1)
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())

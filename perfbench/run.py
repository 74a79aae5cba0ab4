"""beamkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; beamkit is imported from the `src/` directory next to
this one.  With --trace 0 the run times the workload untraced and reports
the end-to-end metrics; with --trace 1 it runs one set-up and one unit of
work untraced and again traced, fails if the two outputs differ, and
reports the per-layer metrics.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; the full record,
with the environment, goes to perfbench/results/.  The exit code is 0 when
every check passed, 1 when one failed and 2 when beamkit cannot be loaded.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS thread.  beamkit's matrices are at most 128 wide, too small to
# gain from a second thread; on the shared 2-core machine this was written
# on, OpenBLAS's idle worker spinning on the other core made the median
# time of a fixed fs_altmin call vary by up to 1.8x between 8-second
# blocks, against 1.5x with one thread.  Set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Set-ups and reference-kernel calls are interleaved with the operations
# so that each takes this share of the run, and so sample the machine over
# the whole run and not at one moment.
SETUP_SHARE = 0.1
REF_SHARE = 0.1

END_TO_END = (
    ("setup_s", "s"),
    ("op_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("deviation_median", "l2"),
    ("main_lobe_mse_mean", "mse"),
)


def import_beamkit():
    """Import beamkit from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import beamkit

    if not Path(beamkit.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"beamkit was loaded from {beamkit.__file__}, not {SRC}")
    return beamkit


def git_commit():
    """HEAD of the checkout; "unknown" when the checkout is not the top of
    a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {var: os.environ.get(var, "unset")
                         for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": git_commit(),
        "seed": seed,
    }


def run_op(wl, state, i, tally):
    """One timed operation; a raised exception fails the op's items."""
    t0 = time.perf_counter()
    try:
        out = wl.op(state, i)
    except Exception:  # keep measuring; the failure is counted and shown
        traceback.print_exc()
        tally.check(False, f"operation {i} raised", wl.items_per_op)
        return None, None
    return out, time.perf_counter() - t0


def reference_kernel():
    """Fixed work that uses no beamkit code: small complex numpy operations
    and integer and dict operations, driven from Python loops, the mix of
    beamkit's inner loops.  op_ref divides by its time."""
    import numpy as np

    x = np.exp(1j * np.linspace(0.0, 6.0, 64))
    acc = 0j
    for _ in range(1000):
        acc += np.sum(x * np.exp(1j * x.real))
        acc += int(np.argmin(np.abs(x - acc)))
    total, table = 0, {}
    for i in range(100_000):
        total += i * i % 7
        table[i & 255] = total
    return acc, total


def run_measured(wl, seed, seconds, workdir):
    """Cycle over the workload's inputs until `seconds` have passed.

    op_ref is the median operation time over the median time of the
    reference kernel, whose calls are spread through the same run.  The
    shared machine this was written on has slow phases, from seconds to
    minutes, in which an operation takes up to twice as long; the ratio
    cancels them, where a time alone moves with how much of a run they
    cover.  The operation times themselves go to the result file.  Every
    repeat must give the same outputs as the input's first run.
    """
    from workloads import Tally

    tally = Tally()
    setup_times, ref_times = [], []

    def timed_setup():
        t0 = time.perf_counter()
        state = wl.setup(seed, workdir)
        setup_times.append(time.perf_counter() - t0)
        return state

    start = time.perf_counter()
    deadline = start + seconds
    state = timed_setup()
    wl.check_setup(state, tally)
    setup_digest = wl.setup_digest(state)

    times, digests, kept = {}, {}, []
    i = 0
    while i < 2 * wl.inputs or time.perf_counter() < deadline:
        key = i % wl.inputs
        out, elapsed = run_op(wl, state, key, tally)
        if out is not None:
            digest = wl.check(state, key, out, tally)
            if key in digests:
                tally.check(digest == digests[key],
                            f"repeating input {key} gave different outputs")
            else:
                digests[key] = digest
                kept.append(out)
            times.setdefault(key, []).append(elapsed)
        i += 1
        while (len(ref_times) < 3
               or sum(ref_times) < REF_SHARE * (time.perf_counter() - start)):
            t0 = time.perf_counter()
            reference_kernel()
            ref_times.append(time.perf_counter() - t0)
        if (len(setup_times) < 2
                or sum(setup_times) < SETUP_SHARE * (time.perf_counter() - start)):
            tally.check(wl.setup_digest(timed_setup()) == setup_digest,
                        "repeating the set-up gave different outputs")

    quality = {}
    if len(kept) == wl.inputs:
        quality = wl.quality(state, kept, tally)
    pooled = [t for key in sorted(times) for t in times[key]]
    deciles = (statistics.quantiles(pooled, n=10, method="inclusive")
               if len(times) == wl.inputs else [None] * 9)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_ref": (deciles[4] / statistics.median(ref_times)
                   if deciles[4] is not None else None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **quality,
    }
    extra = {
        "ops": i,
        "op_s_p10": deciles[0],
        "op_s_median": deciles[4],
        "op_s_p90": deciles[8],
        "ref_s_median": statistics.median(ref_times),
        "op_s_all": [times.get(k) for k in range(wl.inputs)],
        "setup_s_all": setup_times,
        "ref_s_all": ref_times,
        **{k: v for k, v in quality.items() if k not in dict(END_TO_END)},
    }
    return tally, metrics, extra, None


def run_unit(wl, state):
    t0 = time.perf_counter()
    outs = [wl.op(state, i) for i in range(wl.unit_ops)]
    return outs, time.perf_counter() - t0


def run_traced(wl, seed, seconds, workdir):
    """Pairs of (untraced, traced) set-up plus one unit of work, until
    `seconds` have passed; per-layer numbers come from the first pair."""
    from tracing import Tracer, instrument, layer_metrics
    from workloads import Tally

    tally = Tally()
    overheads, first = [], None
    deadline = time.perf_counter() + seconds
    while first is None or time.perf_counter() < deadline:
        tracer = Tracer()
        # alternate which side goes first, so warm-up favours neither
        for traced_side in (False, True) if len(overheads) % 2 == 0 else (True, False):
            if traced_side:
                with instrument(tracer):
                    state = wl.setup(seed, workdir)
                    traced, traced_s = run_unit(wl, state)
            else:
                plain_state = wl.setup(seed, workdir)
                plain, plain_s = run_unit(wl, plain_state)
        overheads.append(traced_s / plain_s - 1.0)
        wl.check_setup(state, tally)
        same = wl.setup_digest(plain_state) == wl.setup_digest(state)
        for i, (a, b) in enumerate(zip(plain, traced)):
            same &= wl.check(plain_state, i, a, tally) == wl.check(state, i, b, tally)
        tally.check(same, "traced outputs differ from untraced outputs")
        if first is None:
            first = tracer
    metrics = layer_metrics(first)
    rates = wl.rates(traced)
    for half in ("practical", "ideal"):
        metrics[f"channel.success_rate.rate_{half}"] = rates.get(
            f"success_rate_{half}", 0.0)
    metrics["trace_overhead_frac"] = statistics.median(overheads)
    extra = {"pairs": len(overheads), "overheads": overheads,
             "untraced_names": first.missing}
    return tally, metrics, extra, first


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    try:
        import_beamkit()
    except ImportError as exc:
        print(f"perfbench: cannot import beamkit from {SRC}: {exc}", file=sys.stderr)
        return 2
    from tracing import PER_LAYER
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    RESULTS.mkdir(exist_ok=True)
    env = environment(args.seed)
    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
        run = run_traced if args.trace else run_measured
        tally, values, extra, tracer = run(wl, args.seed, args.seconds, workdir)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in units}
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0

    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.save(f"{stem}-spans.npz")
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "metrics": metrics, "extra": extra,
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_frac": failed_frac, "problems": tally.problems,
    }
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"workload {args.workload}  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']!s:>22} {m['unit']}")
    print(f"  {'failed_frac':44s} {failed_frac!s:>22} frac")
    for key, value in extra.items():
        print(f"  ({key} = {value})")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    correct = tally.failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface for codeword design, codebook building, and simulation.

Commands: design-ideal, design-practical, build-codebook, simulate,
pattern, table1.  Exit codes: 0 success, 2 usage error, 3 I/O error,
4 numerical failure or out of memory.  The BEAM_SEED environment variable
supplies the default seed; an optional JSON config file provides
per-command defaults that explicit flags override.
"""

import argparse
import contextlib
import json
import os
import statistics
import sys

import numpy as np

from .arrays import _count, beam_gain, main_lobe_mse
from .channel import TrainingConfig, success_rate
from .codebook import build_codebook
from .ideal import ls_icd, ps_icd
from .practical import deviation, fs_altmin
from .serialization import (
    load_codebook,
    load_codeword,
    save_codebook,
    save_codeword,
    save_hybrid,
)
from .targets import make_target

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def _default_seed():
    seed = os.environ.get("BEAM_SEED", "0")
    with contextlib.suppress(ValueError):  # _count names text int() cannot read
        seed = int(seed)
    return _count("BEAM_SEED", seed, 0)


def _config_defaults(path, command, parser):
    """Option defaults from a JSON config file, checked the way parser
    checks the same values given as flags."""
    with open(path) as fh:
        conf = json.load(fh)
    conf = conf.get(command, conf) if isinstance(conf, dict) else None
    if not isinstance(conf, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    for key, value in conf.items():
        action = actions.get(key)
        if action is None:
            raise ValueError(f"{path}: {command} has no option {key!r}")
        try:
            if action.nargs == 0:  # an on/off flag takes a JSON boolean
                ok = isinstance(value, bool)
            else:  # any other value is read as the text after its flag
                value = (action.type or str)(str(value))
                ok = action.choices is None or value in action.choices
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"{path}: invalid value {conf[key]!r} for {key!r}")
        conf[key] = value
    return conf


# Option value types: a ValueError makes argparse, and the --config check,
# reject the value and name the option.  interval reads lo:hi.
def interval(text):
    lo, hi = (float(x) for x in text.split(":"))
    return lo, hi


def float_pair(text):
    a, b = (float(x) for x in text.split(","))
    return a, b


def float_list(text):
    return [float(t) for t in text.split(",")]


def positive_int(text):
    return _count("count", int(text), 1)


def non_negative_int(text):
    return _count("count", int(text), 0)


def positive_int_list(text):
    return [positive_int(t) for t in text.split(",")]


def _pattern_csv(v, grid):
    """The beam pattern of v on the directions grid, as CSV text: a header,
    then omega, |G| and angle(G) in radians per direction, each to 12
    significant digits.  A gain that overflows (a finite v can have one)
    raises FloatingPointError naming the first such direction."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = beam_gain(v, grid)
    bad = np.flatnonzero(~np.isfinite(g))
    if bad.size:
        i = bad[0]
        raise FloatingPointError(f"beam gain at direction {i} (omega = {grid[i]:.12g}) "
                                 f"is not finite: {g[i]}")
    rows = zip(grid, np.abs(g), np.angle(g))
    return "omega,magnitude,phase_rad\n" + "".join(
        f"{om:.12g},{mag:.12g},{ph:.12g}\n" for om, mag, ph in rows)


def cmd_design_ideal(args):
    target = make_target(args.target, args.cover, heights=args.heights,
                         split=args.split)
    if args.method == "ps-icd":
        v = ps_icd(target, args.n, args.k, args.rmax, args.seed)
    else:
        v = ls_icd(target, args.n, args.k)
    save_codeword(v, args.out)
    text = _pattern_csv(v, np.linspace(-1.0, 1.0, 2048))
    with open(args.pattern_csv, "w") as fh:
        fh.write(text)
    print(f"main_lobe_mse {main_lobe_mse(v, target):.12g}")
    return 0


def cmd_design_practical(args):
    single = len(args.nrf) == 1 and args.seeds == 1
    if args.out is not None and not single:
        raise ValueError("--out needs a single run: one --nrf value, --seeds 1")
    v = load_codeword(args.input)
    if single:
        trace = []
        hybrid = fs_altmin(v, args.nrf[0], args.bits, t_max=args.tmax, seed=args.seed,
                           trace=trace)
        save_hybrid(hybrid, "hybrid.json" if args.out is None else args.out)
        print("trace " + " ".join(f"{e:.12g}" for e in trace))
        print(f"nrf {args.nrf[0]} median_deviation {deviation(v, hybrid.realized):.12g}")
        return 0
    # every seed's run of one n_rf in one stacked call, each equal to its own
    seeds = [args.seed + i for i in range(args.seeds)]
    for n_rf in args.nrf:
        hybrids = fs_altmin(np.array([v] * len(seeds)), n_rf, args.bits, t_max=args.tmax,
                            seed=seeds)
        devs = [deviation(v, hybrid.realized) for hybrid in hybrids]
        print(f"nrf {n_rf} median_deviation {statistics.median(devs):.12g}")
    return 0


def cmd_build_codebook(args):
    hw = None if args.nrf is None else {"n_rf": args.nrf, "b": args.bits,
                                        "t_max": args.tmax}
    cb = build_codebook(args.n, m=args.m, k=args.k, r_max=args.rmax,
                        seed=args.seed, method=args.method, hw=hw)
    save_codebook(cb, args.out)
    print(f"codebook n={cb.n} m={cb.m} layers={cb.s} written to {args.out}")
    return 0


def cmd_simulate(args):
    tx_path = args.tx_codebook or args.codebook
    rx_path = args.rx_codebook or args.codebook
    if tx_path is None or rx_path is None:
        raise ValueError("provide --codebook or both --tx-codebook/--rx-codebook")
    tx_cb = load_codebook(tx_path)
    rx_cb = load_codebook(rx_path)
    lines = ["snr_db,trials,successes,rate,ci95"]
    all_records = []
    # measure rejects a received power past the float range after computing
    # it; the overflow on the way there is that error's, not a warning
    with np.errstate(over="ignore"):
        for snr_db in args.snr:
            out = success_rate(TrainingConfig(
                tx_codebook=tx_cb, rx_codebook=rx_cb, snr_db=snr_db, trials=args.trials,
                seed=args.seed, paths=args.paths, use_practical=args.practical))
            lines.append(
                f"{snr_db:.12g},{out['trials']},{out['successes']},"
                f"{out['rate']:.12g},{out['ci95']:.12g}"
            )
            if args.record_trials:
                all_records.append({"snr_db": snr_db, "records": out["records"]})
    text = "\n".join(lines) + "\n"
    with open(args.out, "w") as fh:
        fh.write(text)
    if args.record_trials:
        trials = json.dumps(all_records)  # the C encoder: json.dump never uses it
        with open(args.out + ".trials.json", "w") as fh:
            fh.write(trials)
            fh.write("\n")
    sys.stdout.write(text)
    return 0


def cmd_pattern(args):
    v = load_codeword(args.input)
    text = _pattern_csv(v, np.linspace(-1.0, 1.0, args.points))  # before --out exists
    with open(args.out, "w") as fh:
        fh.write(text)
    return 0


def cmd_table1(args):
    target = make_target("rect", (-1.0, 0.0))
    # K = N would make the grid orthogonal, leaving PS-ICD nothing to do
    ks = [_count("k", max(128, 2 * n) if args.k is None else args.k, n) for n in args.sizes]
    print("n_t,ps_icd_mse,ls_icd_mse")
    for n, k in zip(args.sizes, ks):
        vp = ps_icd(target, n, k, args.rmax, args.seed)
        vl = ls_icd(target, n, k)
        print(f"{n},{main_lobe_mse(vp, target):.12g},"
              f"{main_lobe_mse(vl, target):.12g}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="beamkit",
        description="Two-step beamforming codeword design toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON file with default option values")
        p.set_defaults(func=func, command_parser=p)
        return p

    p = add("design-ideal", cmd_design_ideal)
    p.add_argument("--method", choices=["ps-icd", "ls-icd"], default="ps-icd")
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--cover", type=interval, default="-1:0",
                   help="coverage interval as lo:hi")
    p.add_argument("--target", choices=["rect", "triangular", "step"], default="rect")
    p.add_argument("--heights", type=float_pair, default="1,2",
                   help="step plateau heights h1,h2")
    p.add_argument("--split", type=float, default=0.5, help="step split fraction")
    p.add_argument("--k", type=positive_int, default=128)
    p.add_argument("--rmax", type=non_negative_int, default=2000)
    p.add_argument("--seed", type=non_negative_int, default=_default_seed())
    p.add_argument("--out", default="codeword.json")
    p.add_argument("--pattern-csv", dest="pattern_csv", default="pattern.csv")

    p = add("design-practical", cmd_design_practical)
    p.add_argument("--input", required=True, help="ideal codeword JSON")
    p.add_argument("--nrf", type=positive_int_list, required=True,
                   help="RF chain count(s), e.g. 1,2,4")
    p.add_argument("--bits", type=positive_int, default=6)
    p.add_argument("--tmax", type=non_negative_int, default=50)
    p.add_argument("--seeds", type=positive_int, default=1,
                   help="seed count for the median")
    p.add_argument("--seed", type=non_negative_int, default=_default_seed())
    p.add_argument("--out", help="hybrid JSON of a single run (default hybrid.json)")

    p = add("build-codebook", cmd_build_codebook)
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--m", type=positive_int, default=2)
    p.add_argument("--k", type=positive_int, default=128)
    p.add_argument("--rmax", type=non_negative_int, default=2000)
    p.add_argument("--method", choices=["ps-icd", "ls-icd"], default="ps-icd")
    p.add_argument("--nrf", type=positive_int,
                   help="RF chains (omit for ideal-only)")
    p.add_argument("--bits", type=positive_int, default=6)
    p.add_argument("--tmax", type=non_negative_int, default=50)
    p.add_argument("--seed", type=non_negative_int, default=_default_seed())
    p.add_argument("--out", default="codebook.json")

    p = add("simulate", cmd_simulate)
    p.add_argument("--codebook", help="codebook JSON used for both ends")
    p.add_argument("--tx-codebook", dest="tx_codebook")
    p.add_argument("--rx-codebook", dest="rx_codebook")
    p.add_argument("--snr", type=float_list, default="-10,-5,0,5,10",
                   help="SNR grid in dB, e.g. 0,5 or inf; write a grid that "
                        "starts with a negative value as --snr=-10,-5,0")
    p.add_argument("--trials", type=positive_int, default=500)
    p.add_argument("--paths", type=positive_int, default=1)
    p.add_argument("--seed", type=non_negative_int, default=_default_seed())
    p.add_argument("--practical", action="store_true")
    p.add_argument("--record-trials", dest="record_trials", action="store_true")
    p.add_argument("--out", default="success.csv")

    p = add("pattern", cmd_pattern)
    p.add_argument("--input", required=True)
    p.add_argument("--points", type=positive_int, default=2048)
    p.add_argument("--out", default="pattern.csv")

    p = add("table1", cmd_table1)
    p.add_argument("--sizes", type=positive_int_list, default="16,32,64,128")
    p.add_argument("--k", type=positive_int,
                   help="grid size (default max(128, 2N))")
    p.add_argument("--rmax", type=non_negative_int, default=2000)
    p.add_argument("--seed", type=non_negative_int, default=_default_seed())

    return parser


def main(argv=None):
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.config:  # file values become defaults; explicit flags win
            args.command_parser.set_defaults(**_config_defaults(
                args.config, args.command, args.command_parser))
            args = parser.parse_args(argv)
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (RuntimeError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:  # numpy's message names the refused allocation
        print(f"out of memory: {exc}" if str(exc) else "out of memory",
              file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

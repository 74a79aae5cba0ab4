import io
import json
import os
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beamkit
from beamkit import (
    beam_gain,
    build_codebook,
    deviation,
    fs_altmin,
    ls_icd,
    main_lobe_mse,
    make_target,
    ps_icd,
    steering_vector,
)
from beamkit.cli import _pattern_csv, build_parser, main
from beamkit.serialization import (
    load_codebook,
    load_codeword,
    load_hybrid,
    save_codebook,
)


def _design(tmp_path, *extra):
    out = tmp_path / "v.json"
    csv = tmp_path / "p.csv"
    rc = main(["design-ideal", "--n", "16", "--out", str(out),
               "--pattern-csv", str(csv), *extra])
    assert rc == 0
    return out, csv


def test_design_ideal_writes_outputs(tmp_path, capsys):
    out, csv = _design(tmp_path)
    v = load_codeword(out)
    assert v.size == 16
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "omega,magnitude,phase_rad"
    assert len(lines) == 2049
    assert "main_lobe_mse" in capsys.readouterr().out


def test_design_ideal_ls_and_targets(tmp_path):
    _design(tmp_path, "--method", "ls-icd", "--target", "triangular",
            "--cover=-0.5:0.5")
    _design(tmp_path, "--target", "step", "--heights", "1,2",
            "--split", "0.4", "--rmax", "200")


def test_design_practical(tmp_path, capsys):
    out, _ = _design(tmp_path, "--rmax", "500")
    hyb = tmp_path / "h.json"
    rc = main(["design-practical", "--input", str(out), "--nrf", "2",
               "--bits", "4", "--out", str(hyb)])
    assert rc == 0
    h = load_hybrid(hyb)
    assert h.n_rf == 2 and h.bits == 4
    text = capsys.readouterr().out
    assert "median_deviation" in text and "trace" in text


def test_design_practical_multi_nrf(tmp_path, capsys):
    out, _ = _design(tmp_path, "--rmax", "500")
    rc = main(["design-practical", "--input", str(out), "--nrf", "1,2",
               "--bits", "4", "--seeds", "2"])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.count("median_deviation") == 2


def test_design_practical_runs_each_nrf_in_one_stacked_call(tmp_path, capsys, monkeypatch):
    # --seeds 5 over two --nrf values: one fs_altmin call per n_rf, and
    # stdout byte for byte that of one single-codeword call per seed
    out, _ = _design(tmp_path, "--rmax", "200")
    v = load_codeword(out)
    devs = {n_rf: [deviation(v, fs_altmin(v, n_rf, 4, t_max=10, seed=7 + i).realized)
                   for i in range(5)] for n_rf in (2, 3)}
    expect = "".join(f"nrf {n_rf} median_deviation {statistics.median(d):.12g}\n"
                     for n_rf, d in devs.items())
    real, shapes = beamkit.cli.fs_altmin, []

    def recorded(v, *args, **kwargs):
        shapes.append(np.shape(v))
        return real(v, *args, **kwargs)

    monkeypatch.setattr(beamkit.cli, "fs_altmin", recorded)
    capsys.readouterr()
    assert main(["design-practical", "--input", str(out), "--nrf", "2,3", "--bits", "4",
                 "--tmax", "10", "--seeds", "5", "--seed", "7"]) == 0
    assert capsys.readouterr().out == expect
    assert shapes == [(5, 16), (5, 16)]


@pytest.mark.parametrize("runs", [["--nrf", "1,2"], ["--nrf", "2", "--seeds", "2"]])
@pytest.mark.parametrize("by_config", [False, True])
def test_design_practical_out_needs_a_single_run(tmp_path, capsys, monkeypatch,
                                                 runs, by_config):
    # several runs save no hybrid, so an --out for them is an error, not ignored
    v, _ = _design(tmp_path, "--rmax", "100")
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    out = ["--config", "conf.json"] if by_config else ["--out", "h.json"]
    (tmp_path / "conf.json").write_text(json.dumps({"out": "h.json"}))
    rc = main(["design-practical", "--input", str(v), "--bits", "4", *runs, *out])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --out needs a single run" in captured.err
    assert not (tmp_path / "h.json").exists()
    # one run without --out saves hybrid.json, as before
    assert main(["design-practical", "--input", str(v), "--nrf", "2",
                 "--bits", "4"]) == 0
    assert load_hybrid(tmp_path / "hybrid.json").n_rf == 2


def test_build_codebook_and_simulate(tmp_path, capsys):
    cb_path = tmp_path / "cb.json"
    rc = main(["build-codebook", "--n", "8", "--k", "64", "--rmax", "400",
               "--nrf", "2", "--bits", "4", "--tmax", "20",
               "--out", str(cb_path)])
    assert rc == 0
    cb = load_codebook(cb_path)
    assert cb.n == 8 and cb.s == 3

    sim_out = tmp_path / "sim.csv"
    rc = main(["simulate", "--codebook", str(cb_path), "--snr", "0,inf",
               "--trials", "10", "--out", str(sim_out), "--record-trials"])
    assert rc == 0
    lines = sim_out.read_text().strip().split("\n")
    assert lines[0] == "snr_db,trials,successes,rate,ci95"
    assert len(lines) == 3
    trials = json.loads((tmp_path / "sim.csv.trials.json").read_text())
    assert len(trials) == 2 and len(trials[0]["records"]) == 10


def test_pattern_command(tmp_path):
    out, _ = _design(tmp_path, "--rmax", "200")
    csv = tmp_path / "pat.csv"
    rc = main(["pattern", "--input", str(out), "--points", "64",
               "--out", str(csv)])
    assert rc == 0
    assert len(csv.read_text().strip().split("\n")) == 65


def test_pattern_csv_columns():
    v = steering_vector(4, 0.0)
    grid = np.linspace(-1.0, 1.0, 7)
    rows = np.loadtxt(io.StringIO(_pattern_csv(v, grid)), delimiter=",", skiprows=1)
    assert rows.shape == (7, 3)
    np.testing.assert_allclose(rows[:, 0], grid)
    g = beam_gain(v, grid)
    np.testing.assert_allclose(rows[:, 1], np.abs(g), atol=1e-12)
    np.testing.assert_allclose(rows[:, 2], np.angle(g), atol=1e-12)


def test_pattern_csv_format():
    v = steering_vector(4, 0.0)
    text = _pattern_csv(v, np.array([0.0, 0.5]))
    lines = text.strip().split("\n")
    assert lines[0] == "omega,magnitude,phase_rad"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(2.0, abs=1e-12)


def test_pattern_of_a_nan_codeword_is_usage_error(tmp_path, capsys):
    # it used to exit 0 and write rows of nan
    v = tmp_path / "nan.json"
    v.write_text(json.dumps({"n": 3, "entries": [[1.0, 0.0], [float("nan"), 0.0],
                                                 [0.0, 1.0]]}))
    csv = tmp_path / "pat.csv"
    rc = main(["pattern", "--input", str(v), "--points", "8", "--out", str(csv)])
    assert rc == 2
    assert f"error: {v}: codeword entry 1 is not finite" in capsys.readouterr().err
    assert not csv.exists()


def test_pattern_of_an_overflowing_gain_is_numerical_failure(tmp_path, capsys):
    # a finite codeword whose gain overflows used to exit 0 and write rows
    # of inf and nan; design-practical on the same file exits 4 too
    v = tmp_path / "big.json"
    v.write_text(json.dumps({"n": 2, "entries": [[1e308, 0.0], [1e308, 0.0]]}))
    csv = tmp_path / "pat.csv"
    rc = main(["pattern", "--input", str(v), "--points", "9", "--out", str(csv)])
    assert rc == 4
    assert capsys.readouterr().err.startswith(
        "numerical failure: beam gain at direction 4 (omega = 0) is not finite: ")
    assert not csv.exists()
    assert main(["design-practical", "--input", str(v), "--nrf", "2",
                 "--out", str(tmp_path / "h.json")]) == 4


def test_simulate_rejects_receive_larger_than_transmit(tmp_path, capsys):
    paths = {}
    for n in (4, 8):
        paths[n] = tmp_path / f"cb{n}.json"
        assert main(["build-codebook", "--n", str(n), "--k", "32",
                     "--rmax", "100", "--out", str(paths[n])]) == 0
    rc = main(["simulate", "--tx-codebook", str(paths[4]),
               "--rx-codebook", str(paths[8]), "--trials", "2",
               "--out", str(tmp_path / "sim.csv")])
    assert rc == 2
    assert not (tmp_path / "sim.csv").exists()
    assert "N_r <= N_t" in capsys.readouterr().err


def test_build_codebook_more_chains_than_antennas_is_usage_error(tmp_path,
                                                                capsys):
    rc = main(["build-codebook", "--n", "4", "--nrf", "5",
               "--out", str(tmp_path / "cb.json")])
    assert rc == 2
    assert "n_rf must be in [1, 4]" in capsys.readouterr().err


def test_build_codebook_grid_smaller_than_array_is_usage_error(tmp_path,
                                                               capsys):
    rc = main(["build-codebook", "--n", "16", "--k", "8",
               "--out", str(tmp_path / "cb.json")])
    assert rc == 2
    assert "k must be >= 16 and an integer, got 8" in capsys.readouterr().err
    rc = main(["build-codebook", "--n", "12",
               "--out", str(tmp_path / "cb.json")])
    assert rc == 2
    assert "must be m^s" in capsys.readouterr().err
    assert not (tmp_path / "cb.json").exists()


@pytest.mark.parametrize("heights", ["nan,1", "1,inf", "-1,1"])
def test_bad_step_heights_are_usage_errors(tmp_path, capsys, heights):
    out = tmp_path / "v.json"
    rc = main(["design-ideal", "--n", "8", "--k", "16", "--rmax", "10",
               "--target", "step", f"--heights={heights}", "--out", str(out),
               "--pattern-csv", str(tmp_path / "p.csv")])
    assert rc == 2
    assert "error: heights must be finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_nan_snr_is_usage_error(tmp_path, capsys):
    cb = tmp_path / "cb.json"
    assert main(["build-codebook", "--n", "4", "--k", "32", "--rmax", "100",
                 "--out", str(cb)]) == 0
    rc = main(["simulate", "--codebook", str(cb), "--snr", "nan",
               "--trials", "2", "--out", str(tmp_path / "sim.csv")])
    assert rc == 2
    assert not (tmp_path / "sim.csv").exists()


def test_simulate_with_an_overflowing_received_power_is_usage_error(tmp_path, capsys):
    # 3082 dB is a finite power, but some received powers overflow it
    paths = {}
    for n in (4, 8):
        paths[n] = tmp_path / f"cb{n}.json"
        assert main(["build-codebook", "--n", str(n), "--k", "32",
                     "--rmax", "100", "--out", str(paths[n])]) == 0
    with np.errstate(over="ignore"):
        rc = main(["simulate", "--tx-codebook", str(paths[8]), "--rx-codebook",
                   str(paths[4]), "--snr", "3082", "--paths", "2", "--trials", "20",
                   "--out", str(tmp_path / "sim.csv")])
    assert rc == 2
    assert "error: received power is inf at snr_db = 3082" in capsys.readouterr().err
    assert not (tmp_path / "sim.csv").exists()


def test_simulate_overflow_prints_only_the_error_line(tmp_path):
    # the overflow that makes the received power inf is the error's cause,
    # so no RuntimeWarning (with its source line) comes before the error
    paths = {}
    for n in (4, 8):
        paths[n] = tmp_path / f"cb{n}.json"
        assert main(["build-codebook", "--n", str(n), "--k", "32",
                     "--rmax", "100", "--out", str(paths[n])]) == 0
    src = str(Path(beamkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONWARNINGS": "default",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-m", "beamkit.cli", "simulate",
                          "--tx-codebook", str(paths[8]), "--rx-codebook", str(paths[4]),
                          "--snr", "3082", "--paths", "2", "--trials", "20",
                          "--out", str(tmp_path / "sim.csv")],
                         capture_output=True, text=True, env=env, cwd=tmp_path)
    assert run.returncode == 2
    assert run.stderr == ("error: received power is inf at snr_db = 3082.0, not a finite "
                          "number; a lower snr_db keeps it in the float range\n")
    assert run.stdout == ""
    assert not (tmp_path / "sim.csv").exists()


def test_simulate_nan_codebook_is_usage_error(tmp_path, capsys):
    # every power > nan is False: a NaN codeword would decide nothing, and
    # the campaign would still report a success rate
    cb = tmp_path / "cb.json"
    assert main(["build-codebook", "--n", "4", "--k", "32", "--rmax", "100",
                 "--out", str(cb)]) == 0
    doc = json.loads(cb.read_text())
    doc["layers"][0][1]["ideal"][2] = [float("nan"), 0.0]
    cb.write_text(json.dumps(doc))
    rc = main(["simulate", "--codebook", str(cb), "--snr", "0", "--trials", "5",
               "--out", str(tmp_path / "sim.csv")])
    assert rc == 2
    assert "layer 1 entry 2: ideal codeword is not finite" in capsys.readouterr().err
    assert not (tmp_path / "sim.csv").exists()


def _swap_layer2_ends(doc):
    layer = doc["layers"][1]
    layer[0], layer[3] = layer[3], layer[0]


def _drop_one_hybrid(doc):
    doc["layers"][0][1]["hybrid"] = None


@pytest.mark.parametrize("edit, message", [
    (_swap_layer2_ends, "layer 2 entry 1: coverage (0.5, 1.0) is not (-1.0, -0.5)"),
    (_drop_one_hybrid, "layer 1 entry 2: hybrid (b, n_rf) None is not (4, 2)"),
], ids=["swapped-entries", "one-null-hybrid"])
def test_simulate_rejects_a_codebook_out_of_tree_order(tmp_path, capsys, edit,
                                                       message):
    # a swapped file used to load and train on the wrong children, and a
    # file with one hybrid missing used to fail mid-campaign
    cb = tmp_path / "cb.json"
    assert main(["build-codebook", "--n", "8", "--k", "32", "--rmax", "50",
                 "--nrf", "2", "--bits", "4", "--tmax", "5", "--seed", "1",
                 "--out", str(cb)]) == 0
    capsys.readouterr()
    doc = json.loads(cb.read_text())
    edit(doc)
    cb.write_text(json.dumps(doc))
    rc = main(["simulate", "--codebook", str(cb), "--snr", "inf", "--trials",
               "20", "--practical", "--out", str(tmp_path / "sim.csv")])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "sim.csv").exists()


@pytest.mark.parametrize("nrf", ["1", "2"])
def test_design_practical_nan_codeword_is_usage_error(tmp_path, capsys, nrf):
    # the file is rejected as it loads; it used to reach fs_altmin and exit 4
    v = tmp_path / "nan.json"
    v.write_text(json.dumps({"n": 4, "entries": [[float("nan"), 0.0]] * 4}))
    out = tmp_path / "h.json"
    rc = main(["design-practical", "--input", str(v), "--nrf", nrf,
               "--out", str(out)])
    assert rc == 2
    assert f"error: {v}: codeword entry 0 is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_table1_command(capsys):
    rc = main(["table1", "--sizes", "16", "--rmax", "200"])
    assert rc == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "n_t,ps_icd_mse,ls_icd_mse"
    n, ps, ls = out[1].split(",")
    assert n == "16" and float(ps) > 0 and float(ls) > 0


def test_table1_checks_every_size_before_any_output(capsys):
    assert main(["table1", "--sizes", "4", "--k", "3", "--rmax", "10"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: k must be >= 4 and an integer, got 3\n")
    # --k fits the first size but not the second: still no header, no row
    assert main(["table1", "--sizes", "2,8", "--k", "4", "--rmax", "10"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: k must be >= 8 and an integer, got 4\n")


def test_table1_default_grid_is_twice_n_at_128(capsys):
    # with --k omitted, N = 128 runs on K = 256, not the degenerate K = N
    rc = main(["table1", "--sizes", "128", "--rmax", "200", "--seed", "1"])
    assert rc == 0
    row = capsys.readouterr().out.strip().split("\n")[1]
    rect = make_target("rect", (-1.0, 0.0))
    ps = main_lobe_mse(ps_icd(rect, 128, 256, 200, 1), rect)
    ls = main_lobe_mse(ls_icd(rect, 128, 256), rect)
    assert row == f"128,{ps:.12g},{ls:.12g}"
    # an explicit --k still wins
    main(["table1", "--sizes", "128", "--k", "128", "--rmax", "200",
          "--seed", "1"])
    row = capsys.readouterr().out.strip().split("\n")[1]
    ps = main_lobe_mse(ps_icd(rect, 128, 128, 200, 1), rect)
    assert row.split(",")[1] == f"{ps:.12g}"


def test_config_file_defaults_and_flag_override(tmp_path):
    def design(name, *flags):
        out = tmp_path / f"{name}.json"
        assert main(["design-ideal", "--n", "8", "--out", str(out),
                     "--pattern-csv", str(tmp_path / f"{name}.csv"), *flags]) == 0
        return load_codeword(out)

    section = tmp_path / "section.json"
    section.write_text(json.dumps({"design-ideal": {"rmax": 100, "k": 64}}))
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"rmax": 100, "k": 64}))
    explicit = design("explicit", "--rmax", "100", "--k", "32")
    # the config's rmax = 100 reaches the design (the default is 2000), and an
    # explicit --k 32 beats its k = 64 wherever it stands on the command line
    assert not np.array_equal(design("default", "--k", "32"), explicit)
    for name, flags in (("after", ["--config", str(section), "--k", "32"]),
                        ("before", ["--k", "32", "--config", str(section)]),
                        ("flat", ["--config", str(flat), "--k", "32"])):
        np.testing.assert_array_equal(design(name, *flags), explicit)
    # without an explicit flag the config's k = 64 applies
    np.testing.assert_array_equal(design("k64", "--config", str(section)),
                                  design("ref64", "--rmax", "100", "--k", "64"))


def test_config_file_must_be_an_object(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text("[1, 2]")
    rc = main(["pattern", "--config", str(conf), "--input", "v.json"])
    assert rc == 2
    assert "config must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command, conf, named", [
    ("design-ideal", {"method": "bogus"}, "invalid value 'bogus' for 'method'"),
    ("design-ideal", {"design-ideal": {"rmx": 100}},
     "design-ideal has no option 'rmx'"),
    ("design-ideal", {"k": 1.5}, "invalid value 1.5 for 'k'"),
    ("simulate", {"practical": "yes"}, "invalid value 'yes' for 'practical'"),
    # list options are parsed by their type, so the config check sees them
    ("simulate", {"snr": "a,b"}, "invalid value 'a,b' for 'snr'"),
    ("design-ideal", {"heights": "1"}, "invalid value '1' for 'heights'"),
])
def test_config_values_are_checked_like_flags(tmp_path, capsys, command, conf,
                                              named):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    out = tmp_path / "out.json"
    extra = {"design-ideal": ["--n", "8", "--pattern-csv", str(tmp_path / "p.csv")],
             "simulate": ["--codebook", str(tmp_path / "cb.json")]}[command]
    rc = main([command, *extra, "--config", str(path), "--out", str(out)])
    assert rc == 2
    assert f"error: {path}: {named}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, option", [
    (["design-ideal", "--n", "8", "--heights", "1"], "--heights"),
    (["design-ideal", "--n", "8", "--cover", "0.5"], "--cover"),
    (["design-practical", "--input", "v.json", "--nrf", "2", "--seeds", "0"],
     "--seeds"),
    (["design-practical", "--input", "v.json", "--nrf", "2,x"], "--nrf"),
    (["simulate", "--codebook", "cb.json", "--snr", "0,a"], "--snr"),
    (["table1", "--sizes", "8,"], "--sizes"),
    # counts: negative (or, where zero means nothing, zero) values are
    # rejected when parsed, before a command prints or writes anything
    (["design-ideal", "--n", "8", "--rmax", "-3"], "--rmax"),
    (["design-ideal", "--n", "8", "--k", "0"], "--k"),
    (["design-practical", "--input", "v.json", "--nrf", "2", "--tmax", "-1"],
     "--tmax"),
    (["design-practical", "--input", "v.json", "--nrf", "2,0"], "--nrf"),
    (["build-codebook", "--n", "8", "--m", "0"], "--m"),
    (["build-codebook", "--n", "8", "--nrf", "2", "--bits", "0"], "--bits"),
    (["simulate", "--codebook", "cb.json", "--trials", "0"], "--trials"),
    (["simulate", "--codebook", "cb.json", "--paths", "-1"], "--paths"),
    (["pattern", "--input", "v.json", "--points", "-1"], "--points"),
    (["table1", "--sizes", "0"], "--sizes"),
])
def test_bad_flag_values_are_usage_errors_naming_the_flag(capsys, argv,
                                                          option):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "error: " in err and f"argument {option}:" in err
    assert out == ""


def test_readme_command_lines_parse():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    lines = [ln for ln in block.splitlines() if ln.startswith("beamkit ")]
    parser = build_parser()
    commands = set()
    for line in lines:
        try:
            commands.add(parser.parse_args(shlex.split(line)[1:]).command)
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")
    assert commands == {"design-ideal", "design-practical", "build-codebook",
                        "simulate", "pattern", "table1"}


def test_beam_seed_env(tmp_path, monkeypatch):
    # BEAM_SEED feeds the default seed; explicit --seed still wins
    import beamkit.cli as cli

    monkeypatch.setenv("BEAM_SEED", "7")
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    main(["design-ideal", "--n", "8", "--k", "32", "--rmax", "200",
          "--out", str(out1), "--pattern-csv", str(tmp_path / "p1.csv")])
    monkeypatch.delenv("BEAM_SEED")
    main(["design-ideal", "--n", "8", "--k", "32", "--rmax", "200",
          "--seed", "7", "--out", str(out2),
          "--pattern-csv", str(tmp_path / "p2.csv")])
    np.testing.assert_array_equal(load_codeword(out1), load_codeword(out2))
    assert cli._default_seed() == 0


def test_non_integer_beam_seed_is_usage_error(tmp_path):
    src = str(Path(beamkit.__file__).resolve().parents[1])
    env = {**os.environ, "BEAM_SEED": "abc",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-m", "beamkit.cli", "table1",
                          "--sizes", "8"], capture_output=True, text=True,
                         env=env, cwd=tmp_path)
    assert run.returncode == 2
    assert "error: BEAM_SEED must be >= 0 and an integer, got 'abc'" in run.stderr
    assert "Traceback" not in run.stderr


def test_exit_code_usage_error(tmp_path):
    # k < n is a domain error -> exit 2
    rc = main(["design-ideal", "--n", "16", "--k", "8",
               "--out", str(tmp_path / "v.json"),
               "--pattern-csv", str(tmp_path / "p.csv")])
    assert rc == 2
    # argparse errors exit with code 2 via SystemExit
    with pytest.raises(SystemExit) as exc:
        main(["design-ideal"])  # missing required --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_exit_code_io_error(tmp_path):
    rc = main(["design-practical", "--input", str(tmp_path / "missing.json"),
               "--nrf", "2"])
    assert rc == 3
    rc = main(["simulate", "--codebook", str(tmp_path / "missing.json")])
    assert rc == 3


def test_simulate_without_codebook_is_usage_error(tmp_path, capsys):
    rc = main(["simulate", "--rx-codebook", str(tmp_path / "cb.json"),
               "--out", str(tmp_path / "sim.csv")])
    assert rc == 2
    assert "provide --codebook" in capsys.readouterr().err


def test_malformed_input_files_are_usage_errors(tmp_path, capsys):
    cb = tmp_path / "cb.json"
    cb.write_text(json.dumps({"n": 4, "m": 2, "seed": 0, "method": "ps-icd",
                              "hw": None}))
    v = tmp_path / "v.json"
    v.write_text(json.dumps({"entries": [[1.0, 0.0]]}))
    hw = tmp_path / "hw.json"
    save_codebook(build_codebook(2, k=4, r_max=0), hw)
    hw.write_text(json.dumps({**json.loads(hw.read_text()), "hw": {"junk": 1}}))
    for argv, field in ((["simulate", "--codebook", str(cb)], "layers"),
                        (["simulate", "--codebook", str(hw)], "hw keys"),
                        (["pattern", "--input", str(v)], "field n")):
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
    assert not (tmp_path / "out.csv").exists()


def test_module_entry_point_exit_codes(tmp_path):
    # runs `python -m beamkit.cli`, so that sys.exit(main()) is exercised
    src = str(Path(beamkit.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cb = tmp_path / "cb.json"
    cb.write_text("[]")
    for args, code in (([], 2),
                       (["pattern", "--input", str(tmp_path / "missing.json")], 3),
                       (["simulate", "--codebook", str(cb)], 2)):
        run = subprocess.run([sys.executable, "-m", "beamkit.cli", *args],
                             capture_output=True, text=True, env=env,
                             cwd=tmp_path)
        assert run.returncode == code, run.stderr
        assert "Traceback" not in run.stderr


def test_exit_code_numerical_failure(tmp_path):
    # coverage too narrow for any grid node: the synthesis collapses
    rc = main(["design-ideal", "--n", "16", "--cover=-0.004:-0.002",
               "--out", str(tmp_path / "v.json"),
               "--pattern-csv", str(tmp_path / "p.csv")])
    assert rc == 4


@pytest.mark.parametrize("message", ["Unable to allocate 14.6 TiB for an array with shape "
                                     "(1000000, 1000000) and data type complex128", ""])
def test_out_of_memory_exits_4_with_one_line(tmp_path, capsys, monkeypatch, message):
    # design-ideal --n 8 --k 1000000 asks numpy for a 14.6 TiB Gram; the
    # MemoryError used to end the command with exit 1 and a traceback
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(beamkit.cli, "ps_icd", refuse)
    rc = main(["design-ideal", "--n", "8", "--out", str(tmp_path / "v.json")])
    assert rc == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"out of memory: {message}\n" if message else "out of memory\n")
    assert not (tmp_path / "v.json").exists()

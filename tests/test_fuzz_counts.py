"""Fuzz of every public count parameter and seed, of the CLI's integer
options, and of the files the CLI reads: --config documents, codebooks and
codewords.

Each count is given Python and numpy integers in its range, and floats,
bools, 0, negatives, out-of-range values and other junk.  A call either
raises ValueError naming the parameter and the value given, or returns
byte for byte what the equal Python int gives.  Examples are derandomized,
and every valid size is small, so no example allocates or loops at scale.
"""

import contextlib
import copy
import functools
import hashlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beamkit import (
    Channel,
    HierarchicalCodebook,
    HybridCodeword,
    TrainingConfig,
    build_codebook,
    draw_channel,
    fs_altmin,
    layer_count,
    ls_icd,
    make_target,
    phase_set,
    ps_icd,
    steering_matrix,
    steering_vector,
    success_rate,
    training_test_count,
)
from beamkit.cli import build_parser, main
from beamkit.serialization import save_codebook

_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True,
                     database=None)

_TARGET = make_target("rect", (-1.0, 0.0))
_V = ps_icd(_TARGET, 6, 16, 50, seed=0)
_SMALL_CB = build_codebook(4, k=8, r_max=10, seed=0, hw={"n_rf": 2, "b": 3,
                                                          "t_max": 2})
_RX_CB = build_codebook(2, k=8, r_max=10, seed=1, hw={"n_rf": 1, "b": 3,
                                                       "t_max": 2})


def _bits_of(*arrays):
    return [(a.dtype.str, a.shape, hashlib.sha256(a.tobytes()).hexdigest())
            for a in map(np.asarray, arrays)]


def _codebook_bytes(cb):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "cb.json")
        save_codebook(cb, path)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def _types(*values):
    return [type(v).__name__ for v in values]


def _hw_codebook(hw_n_rf=2, hw_b=3, hw_t_max=2, **kw):
    hw = {"n_rf": hw_n_rf, "b": hw_b, "t_max": hw_t_max}
    cb = build_codebook(**{"n": 4, "k": 8, "r_max": 10, "seed": 0, **kw}, hw=hw)
    return _codebook_bytes(cb), _types(*cb.hw.values())


def _codebook(**kw):
    cb = build_codebook(**{"n": 4, "m": 2, "k": 8, "r_max": 10, "seed": 0, **kw})
    return _codebook_bytes(cb), _types(cb.n, cb.m, cb.seed)


def _hand_built(**kw):
    cb = HierarchicalCodebook(**{"n": 4, "m": 2, "seed": 0, **kw},
                              layers=_SMALL_CB.layers, hw=_SMALL_CB.hw)
    return _codebook_bytes(cb), _types(cb.n, cb.m, cb.seed)


def _channel(**kw):
    ch = Channel(**{"n_t": 4, "n_r": 3, **kw}, gains=[1.0, 0.5j], aod=[0.1, -0.4],
                 aoa=[0.3, 0.2])
    return _bits_of(ch.matrix), _types(ch.n_t, ch.n_r)


def _drawn_channel(**kw):
    ch = draw_channel(**{"n_t": 4, "n_r": 2, "l": 2, "seed": 5, **kw})
    return _bits_of(ch.gains, ch.aod, ch.aoa, ch.matrix), _types(ch.n_t, ch.n_r)


def _campaign(**kw):
    cfg = TrainingConfig(_SMALL_CB, _RX_CB, 0.0,
                         **{"trials": 3, "seed": 0, "paths": 1, **kw},
                         use_practical=True)
    out = success_rate(cfg)
    return out, _types(cfg.trials, cfg.seed, cfg.paths)


def _hybrid(bits):
    h = HybridCodeword(np.zeros((3, 2), dtype=int), bits, np.array([1.0, 0.5j]))
    return _bits_of(h.realized), _types(h.bits)


def _factored(**kw):
    h = fs_altmin(_V, **{"n_rf": 2, "b": 3, "t_max": 2, "seed": 0, **kw})
    return _bits_of(h.phase_indices, h.digital), _types(h.bits)


def _steering_matrix(**kw):
    sm = steering_matrix(**{"n": 4, "k": 8, **kw})
    return _bits_of(sm.grid, sm.matrix), _types(sm.n, sm.k)


# case: (call taking the counts as keywords, {count: (lo, hi, valid values)});
# the error names the count as given, or "hw <key>" for an hw key
CASES = {
    "steering_vector": (lambda n: _bits_of(steering_vector(n, 0.3)),
                        {"n": (1, None, [1, 2, 5])}),
    "steering_matrix": (_steering_matrix,
                        {"n": (1, None, [1, 4, 8]), "k": (4, None, [4, 9, 16])}),
    "ps_icd": (lambda n=4, k=8, r_max=20, seed=3:
               _bits_of(ps_icd(_TARGET, n, k, r_max, seed)),
               {"n": (1, None, [2, 4, 8]), "k": (4, None, [4, 8, 12]),
                "r_max": (0, None, [0, 7, 20]), "seed": (0, None, [0, 3])}),
    "ls_icd": (lambda n=4, k=8: _bits_of(ls_icd(_TARGET, n, k)),
               {"n": (1, None, [1, 4]), "k": (4, None, [4, 16])}),
    "phase_set": (lambda bits: (_bits_of(phase_set(bits).values,
                                         phase_set(bits).phasors),
                                _types(phase_set(bits).bits)),
                  {"bits": (1, 16, [1, 2, 6, 16])}),
    "HybridCodeword": (_hybrid, {"bits": (1, 16, [1, 4, 16])}),
    "fs_altmin": (_factored, {"n_rf": (1, 6, [1, 2, 3]), "b": (1, 16, [1, 3, 6]),
                              "t_max": (0, None, [0, 1, 3]),
                              "seed": (0, None, [0, 4])}),
    "layer_count": (lambda n=16, m=2: layer_count(n, m),
                    {"n": (1, None, [2, 16]), "m": (2, None, [2, 4, 16])}),
    "training_test_count": (
        lambda n_t=8, n_r=4, m=2: training_test_count(n_t, n_r, m),
        {"n_t": (1, None, [4, 8]), "n_r": (1, None, [2, 4]), "m": (2, None, [2])}),
    "build_codebook": (_codebook, {"n": (1, None, [2, 4, 8]), "m": (2, None, [2, 4]),
                                   "k": (4, None, [4, 8]), "r_max": (0, None, [0, 10]),
                                   "seed": (0, None, [0, 9])}),
    "build_codebook hw": (_hw_codebook, {"hw_n_rf": (1, 4, [1, 2]),
                                         "hw_b": (1, 16, [1, 3]),
                                         "hw_t_max": (0, None, [0, 2])}),
    "HierarchicalCodebook": (_hand_built, {"n": (1, None, [4]), "m": (2, None, [2]),
                                           "seed": (0, None, [0, 40])}),
    "Channel": (_channel, {"n_t": (1, None, [1, 4]), "n_r": (1, None, [1, 3])}),
    "draw_channel": (_drawn_channel, {"n_t": (1, None, [2, 4]),
                                      "n_r": (1, None, [1, 2]),
                                      "l": (1, None, [1, 3]),
                                      "seed": (0, None, [0, 5])}),
    "TrainingConfig": (_campaign, {"trials": (1, None, [1, 3]),
                                   "seed": (0, None, [0, 7]),
                                   "paths": (1, None, [1, 2])}),
}
PARAMS = [(case, name) for case, (_, counts) in CASES.items() for name in counts]

_NUMPY_INTS = st.sampled_from([np.int16, np.int32, np.int64, np.uint16, np.uint64])
_JUNK = st.sampled_from([None, "4", np.nan, np.inf, -np.inf, np.bool_(True),
                         np.float64(2.0), 3j])


@st.composite
def _count_value(draw, lo, hi, valid):
    """(value, the Python int it stands for, or None if it must be rejected)."""
    good = draw(st.sampled_from(valid))
    below = draw(st.integers(lo - 3, lo - 1))
    above = below if hi is None else draw(st.integers(hi + 1, hi + 3))
    return draw(st.sampled_from([
        (good, good),
        (draw(_NUMPY_INTS)(good), good),
        (float(good), None),
        (good + 0.5, None),
        (np.array(good), None),  # a 0-d array is not an integer scalar
        (draw(st.booleans()), None),
        (below, None),
        (np.int64(above), None),
        (draw(_JUNK), None),
    ]))


@functools.lru_cache(maxsize=None)
def _expected(case, name, good):
    return repr(CASES[case][0](**{name: good}))


@pytest.mark.parametrize("case, name", PARAMS, ids=[f"{c}-{n}" for c, n in PARAMS])
def test_count_is_rejected_by_name_or_gives_the_int_result(case, name):
    call, counts = CASES[case]

    @_SETTINGS
    @given(drawn=_count_value(*counts[name]))
    def check(drawn):
        value, good = drawn
        # draw_channel passes a seed that is no scalar (None, an array, a
        # Generator) on to np.random.default_rng
        assume((case, name) != ("draw_channel", "seed") or np.isscalar(value))
        if good is None:
            with pytest.raises(ValueError) as exc:
                call(**{name: value})
            label = name.replace("hw_", "hw ")
            message = str(exc.value)
            assert message.startswith(f"{label} must be ")
            assert message.endswith(f"and an integer, got {value!r}")
        else:
            assert repr(call(**{name: value})) == _expected(case, name, good)

    check()


# command: (fixed arguments, {option: largest value drawn}); every drawn
# integer option stays small, so each run takes milliseconds
_COMMANDS = {
    "design-ideal": (["--n", "8", "--k", "16", "--rmax", "20"],
                     {"--n": 16, "--k": 32, "--rmax": 40, "--seed": 4}),
    "design-practical": (["--input", "{v}", "--nrf", "2", "--bits", "3",
                          "--tmax", "2"],
                         {"--nrf": 4, "--bits": 17, "--tmax": 3, "--seeds": 2,
                          "--seed": 4}),
    "build-codebook": (["--n", "4", "--k", "8", "--rmax", "10", "--nrf", "2",
                        "--bits", "3", "--tmax", "2"],
                       {"--n": 8, "--m": 4, "--k": 16, "--rmax": 20, "--nrf": 5,
                        "--bits": 17, "--tmax": 3, "--seed": 4}),
    "simulate": (["--codebook", "{cb}", "--snr", "0", "--trials", "3"],
                 {"--trials": 5, "--paths": 3, "--seed": 4}),
    "pattern": (["--input", "{v}", "--points", "16"], {"--points": 64}),
    "table1": (["--sizes", "4", "--k", "8", "--rmax", "10"],
               {"--sizes": 8, "--k": 16, "--rmax": 20, "--seed": 4}),
}
_TEXTS = st.sampled_from(["", "x", "1.5", "2e1", "0x4", "4.0", " 3", "+2", "-0",
                          "1,2", "nan", "True", "--"])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["design-ideal", "--n", "8", "--k", "16", "--rmax", "20",
                     "--out", str(d / "v.json"),
                     "--pattern-csv", str(d / "v.csv")]) == 0
        assert main(["build-codebook", "--n", "4", "--k", "8", "--rmax", "10",
                     "--nrf", "2", "--bits", "3", "--tmax", "2",
                     "--out", str(d / "cb.json")]) == 0
    return d


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    fixed, options = _COMMANDS[command]
    option = draw(st.sampled_from(sorted(options)))
    text = draw(st.one_of(st.integers(-3, options[option]).map(str), _TEXTS))
    return command, fixed, option, text


def _run(workdir, command, *args):
    """(exit code, stdout, stderr) of a command run on the fixed arguments
    of _COMMANDS, args, and outputs in workdir."""
    fixed = _COMMANDS[command][0]
    argv = [command, *(a.format(v=workdir / "v.json", cb=workdir / "cb.json")
                       for a in fixed), *args]
    if command != "table1":
        argv += ["--out", str(workdir / "out")]
    if command == "design-ideal":
        argv += ["--pattern-csv", str(workdir / "out.csv")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(drawn=_argv())
def test_cli_integer_options_exit_0_or_2_without_a_traceback(workdir, drawn):
    command, fixed, option, text = drawn
    code, _, err = _run(workdir, command, option, text)
    assert code in (0, 2), (command, option, text, err)
    assert "Traceback" not in err
    assert (code == 2) == err.startswith(("usage:", "error:")), err


_SEEDED = sorted(c for c, (_, options) in _COMMANDS.items() if "--seed" in options)


@pytest.mark.parametrize("command", _SEEDED)
@pytest.mark.parametrize("seed", ["-1", "2.5", "x"])
def test_cli_seed_is_a_count_checked_before_any_output(workdir, command, seed):
    # checked when parsed, so table1 prints no header before the error
    (workdir / "out").unlink(missing_ok=True)
    code, out, err = _run(workdir, command, "--seed", seed)
    assert code == 2 and out == ""
    assert f"argument --seed: invalid non_negative_int value: '{seed}'" in err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("command", _SEEDED)
@pytest.mark.parametrize("seed, shown", [("-1", "-1"), ("2.5", "'2.5'"),
                                         ("x", "'x'"), ("True", "'True'")])
def test_beam_seed_follows_the_count_rule(workdir, monkeypatch, command, seed,
                                          shown):
    # text int() cannot read is named as the text
    monkeypatch.setenv("BEAM_SEED", seed)
    code, out, err = _run(workdir, command)
    assert (code, out) == (2, "")
    assert err == f"error: BEAM_SEED must be >= 0 and an integer, got {shown}\n"
    monkeypatch.setenv("BEAM_SEED", " 3")  # read as int() reads it
    code, _, err = _run(workdir, command)
    assert code == 0, err


# --config documents, codebook and codeword files: whatever a file holds, a
# command exits 0, 2, 3 or 4 and prints no traceback.  Every drawn integer stays
# small, since a valid count in a config runs at the size it asks for.
_SUBPARSERS = next(a for a in build_parser()._actions if a.dest == "command").choices
_OPTIONS = {c: sorted(a.dest for a in _SUBPARSERS[c]._actions
                      if a.dest not in ("help", "config")) for c in _COMMANDS}
_UNKNOWN_KEYS = ["config", "help", "command", "func", "junk", ""]


def _json_values(ints):
    """JSON values of every type: null, bools, the given ints, floats
    (NaN and infinities too), strings, and short lists and objects."""
    scalars = st.one_of(st.none(), st.booleans(), ints, st.floats(), _TEXTS)
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(_TEXTS, inner, max_size=3), max_leaves=4)


@st.composite
def _config(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    keys = st.sampled_from(_OPTIONS[command] + _UNKNOWN_KEYS)
    conf = draw(st.dictionaries(keys, _json_values(st.integers(-3, 8)), max_size=3))
    # the command's own section, the whole document, or no object at all
    doc = draw(st.sampled_from([{command: conf}, conf, {"other": conf}, [conf]]))
    return command, doc


def _exits_cleanly(code, err):
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    assert code == 0 or err.startswith(("usage:", "error:", "numerical failure:")), err


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(drawn=_config())
def test_cli_config_documents_exit_cleanly(workdir, drawn):
    command, doc = drawn
    path = workdir / "conf.json"
    path.write_text(json.dumps(doc))
    # relative paths a config names resolve inside workdir
    with contextlib.chdir(workdir):
        code, _, err = _run(workdir, command, "--config", str(path))
    _exits_cleanly(code, err)


def _nodes(doc, path=()):
    """(path, value) of every object member and list item below doc."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield (*path, key), value
        yield from _nodes(value, (*path, key))


def _set(doc, path, value=None, drop=False):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    if drop:
        del doc[last]
    else:
        doc[last] = value


_VALUES = _json_values(st.integers(-3, 8) | st.just(10**400))


def _mutate_node(draw, doc, kind):
    """Mutate doc in place: drop a member or item ("drop"), put a JSON value
    of any type in its place ("retype"), or replace a number by an int past
    the float range, NaN or an infinity ("extreme")."""
    if kind == "drop":
        _set(doc, draw(st.sampled_from([p for p, _ in _nodes(doc)])), drop=True)
    elif kind == "retype":
        _set(doc, draw(st.sampled_from([p for p, _ in _nodes(doc)])), draw(_VALUES))
    else:
        numbers = [p for p, v in _nodes(doc) if type(v) in (int, float)]
        _set(doc, draw(st.sampled_from(numbers)),
             draw(st.sampled_from([10**400, np.nan, np.inf, -np.inf])))


@st.composite
def _mutated_codebook(draw, doc):
    """(a mutated copy of doc, whether the mutation alone must exit 2)."""
    doc = copy.deepcopy(doc)
    kind = draw(st.sampled_from(["drop", "retype", "extreme", "swap", "null-hybrid",
                                 "hw"]))
    if kind == "swap":  # entries of a layer trade places
        layer = draw(st.sampled_from(doc["layers"]))
        i, j = draw(st.lists(st.sampled_from(range(len(layer))), min_size=2,
                             max_size=2, unique=True))
        layer[i], layer[j] = layer[j], layer[i]
    elif kind == "null-hybrid":
        layer = draw(st.sampled_from(doc["layers"]))
        draw(st.sampled_from(layer))["hybrid"] = None
    elif kind == "hw":
        key = draw(st.sampled_from([None, "n_rf", "b", "t_max", "junk"]))
        if key is None:
            doc["hw"] = draw(_VALUES)
        elif draw(st.booleans()):
            doc["hw"].pop(key, None)
        else:
            doc["hw"][key] = draw(_VALUES)
    else:
        _mutate_node(draw, doc, kind)
    return doc, kind in ("swap", "null-hybrid")


@pytest.fixture(scope="module")
def codebook_doc(workdir):
    return json.loads((workdir / "cb.json").read_text())


@pytest.mark.parametrize("practical", [False, True])
def test_cli_mutated_codebook_files_exit_cleanly(workdir, codebook_doc, practical):
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(drawn=_mutated_codebook(codebook_doc))
    def check(drawn):
        doc, rejected = drawn
        path = workdir / "mutated.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(workdir, "simulate", "--codebook", str(path),
                              *["--practical"] * practical)
        _exits_cleanly(code, err)
        if rejected:
            assert (code, out) == (2, ""), err

    check()


@pytest.mark.parametrize("command", ["pattern", "design-practical"])
def test_cli_mutated_codeword_files_exit_0_or_2(workdir, command):
    # a codeword file holds only JSON fields and numbers, so whatever it
    # holds is the caller's to fix: a run succeeds or exits 2.  The one
    # numerical failure is a finite codeword whose norm overflows (an entry
    # near the float range's top), which fs_altmin cannot factor.
    doc = json.loads((workdir / "v.json").read_text())

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["drop", "retype", "extreme"]), data=st.data())
    def check(kind, data):
        mutated = copy.deepcopy(doc)
        _mutate_node(data.draw, mutated, kind)
        path = workdir / "mutated_v.json"
        path.write_text(json.dumps(mutated))
        code, _, err = _run(workdir, command, "--input", str(path))
        overflow = err.endswith("numerical failure: codeword to factor has norm inf\n")
        assert code in (0, 2) or (code, command, overflow) == (4, "design-practical", True), err
        assert "Traceback" not in err
        assert (code == 2) == err.startswith("error:"), err

    check()

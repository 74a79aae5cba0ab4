import copy
import json
import re

import numpy as np
import pytest

from beamkit import (
    CodebookEntry,
    HierarchicalCodebook,
    HybridCodeword,
    build_codebook,
    fs_altmin,
    ps_icd,
)
from beamkit import make_target
from beamkit.serialization import (
    load_codebook,
    load_codeword,
    load_hybrid,
    save_codebook,
    save_codeword,
    save_hybrid,
)


def test_codeword_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    path = tmp_path / "v.json"
    save_codeword(v, path)
    w = load_codeword(path)
    np.testing.assert_array_equal(v, w)  # bit-exact, not approx


def test_codeword_dict_shape(tmp_path):
    path = tmp_path / "v.json"
    save_codeword(np.array([1 + 2j, 3 - 4j]), path)
    assert json.loads(path.read_text()) == {
        "n": 2, "entries": [[1.0, 2.0], [3.0, -4.0]]}
    path.write_text(json.dumps({"n": 3, "entries": [[1.0, 0.0]]}))
    with pytest.raises(ValueError, match="entries"):
        load_codeword(path)


def test_save_codeword_refuses_non_finite_entries(tmp_path):
    # json writes them as bare NaN / Infinity tokens, which are not JSON
    path = tmp_path / "x.json"
    with pytest.raises(ValueError, match=r"codeword entry 2 is not finite: \(inf"):
        save_codeword(np.array([1.0, 1j, np.inf, 0.5]), path)
    assert not path.exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_load_codeword_refuses_non_finite_entries(tmp_path, bad):
    # Python's json reads the NaN and Infinity tokens; the entry used to load
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"n": 2, "entries": [[1.0, 0.0], [0.0, bad]]}))
    with pytest.raises(ValueError, match=re.escape(f"{path}: codeword entry 1 is not finite")):
        load_codeword(path)


def test_hybrid_round_trip(tmp_path):
    target = make_target("rect", (-1.0, 0.0))
    v = ps_icd(target, 8, 64, 400, seed=0)
    h = fs_altmin(v, 2, 4, seed=0)
    path = tmp_path / "h.json"
    save_hybrid(h, path)
    h2 = load_hybrid(path)
    np.testing.assert_array_equal(h.phase_indices, h2.phase_indices)
    np.testing.assert_array_equal(h.digital, h2.digital)
    assert h2.bits == 4
    np.testing.assert_array_equal(h.realized, h2.realized)


def test_codebook_round_trip(tmp_path):
    cb = build_codebook(8, m=2, k=64, r_max=400, seed=3,
                        hw={"n_rf": 2, "b": 4, "t_max": 20})
    path = tmp_path / "cb.json"
    save_codebook(cb, path)
    cb2 = load_codebook(path)
    assert (cb2.n, cb2.m, cb2.seed, cb2.method) == (8, 2, 3, "ps-icd")
    assert cb2.hw == {"n_rf": 2, "b": 4, "t_max": 20}
    for l1, l2 in zip(cb.layers, cb2.layers):
        for e1, e2 in zip(l1, l2):
            assert e1.coverage == pytest.approx(e2.coverage)
            np.testing.assert_array_equal(e1.ideal, e2.ideal)
            np.testing.assert_array_equal(
                e1.hybrid.phase_indices, e2.hybrid.phase_indices
            )
            np.testing.assert_array_equal(e1.hybrid.digital, e2.hybrid.digital)


def test_files_are_plain_json(tmp_path):
    v = np.array([0.5 + 0.25j])
    path = tmp_path / "v.json"
    save_codeword(v, path)
    doc = json.loads(path.read_text())
    assert doc["n"] == 1


@pytest.fixture(scope="module")
def codebook_doc(tmp_path_factory):
    """A saved 8-antenna codebook with 4-bit hybrids, as a JSON document."""
    path = tmp_path_factory.mktemp("cb") / "cb.json"
    save_codebook(build_codebook(8, m=2, k=64, r_max=100, seed=0,
                                 hw={"n_rf": 2, "b": 4, "t_max": 5}), path)
    return json.loads(path.read_text())


def edited(doc, keys, change):
    """A copy of doc whose item at keys is replaced by change(item), or
    deleted when change is None."""
    doc = copy.deepcopy(doc)
    if not keys:
        return change(doc)
    *parents, last = keys
    node = doc
    for key in parents:
        node = node[key]
    if change is None:
        del node[last]
    else:
        node[last] = change(node[last])
    return doc


_INDEX = ("layers", 0, 1, "hybrid", "analog_phase_indices", 3, 1)
_BAD_INDICES = ("layers[0][1].hybrid: phase_indices must be a non-empty 2-D integer "
                "array with entries in [0, 2^4)")

# (keys, change, text the error must contain) for each way to break a codebook
MALFORMED_CODEBOOKS = {
    "not-an-object": ((), lambda d: [d], "document is not a JSON object"),
    "missing-layers": (("layers",), None, "missing field layers"),
    "too-few-layers": (("layers",), lambda l: l[:2], "needs 3 layers, got 2"),
    "wrong-entry-count": (("layers", 1), lambda l: l[:3],
                          "layer 2 has 3 entries, expected 4"),
    "short-ideal": (("layers", 1, 2, "ideal"), lambda v: v[:-1],
                    "layer 2 entry 3: codeword length"),
    "index-equal-to-2^b": (_INDEX, lambda i: 16, _BAD_INDICES),
    "negative-index": (_INDEX, lambda i: -1, _BAD_INDICES),
    "float-index": (_INDEX, lambda i: 1.0, "field layers[0][1].hybrid.analog_phase"
                    "_indices must be rows of 2 integers"),
    "no-index-rows": (_INDEX[:-2], lambda rows: [], _BAD_INDICES),
    "string-pair": (("layers", 0, 0, "ideal", 0), lambda p: ["1", 0],
                    "layers[0][0].ideal"),
    # an int past the float range is no number, as a string is not
    "huge-int-pair": (("layers", 0, 0, "ideal", 0), lambda p: [10**400, 0],
                      "field layers[0][0].ideal must be a list of [re, im] number pairs"),
    "huge-int-coverage": (("layers", 0, 1, "coverage", 0), lambda lo: -10**400,
                          "field layers[0][1].coverage must be a [lo, hi] number pair"),
    "digital-size": (("layers", 0, 0, "hybrid", "digital"), lambda d: d[:1],
                     "layers[0][0].hybrid.digital"),
    # a NaN codeword would lose every power comparison of a descent
    "nan-ideal": (("layers", 1, 2, "ideal", 0), lambda p: [float("nan"), 0.0],
                  "layer 2 entry 3: ideal codeword is not finite"),
    "infinite-digital": (("layers", 0, 1, "hybrid", "digital", 1),
                         lambda p: [0.0, float("inf")],
                         "layers[0][1].hybrid: digital must be 2 finite entries, got ["),
    "hw-unknown-key": (("hw",), lambda hw: {"junk": 1},
                       "hw keys must be n_rf, b and t_max, got ['junk']"),
    "hw-missing-key": (("hw", "t_max"), None, "got ['n_rf', 'b']"),
    "hw-float": (("hw", "t_max"), lambda t: 5.0,
                 "hw t_max must be >= 0 and an integer, got 5.0"),
    "hw-too-many-chains": (("hw", "n_rf"), lambda n: 9, "hw n_rf must be in [1, 8]"),
    "hw-other-b": (("hw",), lambda hw: {"n_rf": 7, "b": 2, "t_max": 5},
                   "layer 1 entry 1: hybrid (b, n_rf) (4, 2) is not (2, 7) for "
                   "hw = {'n_rf': 7, 'b': 2, 't_max': 5}"),
    "hw-other-n_rf": (("hw", "n_rf"), lambda n: 7,
                      "layer 1 entry 1: hybrid (b, n_rf) (4, 2) is not (4, 7) for "
                      "hw = {'n_rf': 7, 'b': 4, 't_max': 5}"),
    "bottom-two-chains": (("layers", 2, 5, "hybrid"), lambda h: {
        **h, "n_rf": 2, "analog_phase_indices": [[i[0], 0] for i in
                                                 h["analog_phase_indices"]],
        "digital": h["digital"] + [[0.0, 0.0]]},
        "layer 3 entry 6: hybrid (b, n_rf) (4, 2) is not (4, 1) for "
        "hw = {'n_rf': 2, 'b': 4, 't_max': 5}"),
    "hw-null-over-hybrids": (("hw",), lambda hw: None,
                             "layer 1 entry 1: hybrid (b, n_rf) (4, 2) is not None "
                             "for hw = None"),
    "hw-over-no-hybrids": (("layers",), lambda layers: [
        [{**e, "hybrid": None} for e in layer] for layer in layers],
        "layer 1 entry 1: hybrid (b, n_rf) None is not (4, 2) for "
        "hw = {'n_rf': 2, 'b': 4, 't_max': 5}"),
    # a descent takes entries M i ... M i + M - 1 of the next layer as the
    # children of entry i, so each entry must sit on its own tile
    "swapped-entries": (("layers", 1), lambda l: [l[3], l[1], l[2], l[0]],
                        "layer 2 entry 1: coverage (0.5, 1.0) is not (-1.0, -0.5)"),
    "off-tile": (("layers", 0, 0, "coverage", 1), lambda hi: 0.25,
                 "layer 1 entry 1: coverage (-1.0, 0.25) is not (-1.0, 0.0)"),
    "one-null-hybrid": (("layers", 0, 1, "hybrid"), lambda h: None,
                        "layer 1 entry 2: hybrid (b, n_rf) None is not (4, 2) for "
                        "hw = {'n_rf': 2, 'b': 4, 't_max': 5}"),
}


@pytest.mark.parametrize("case", MALFORMED_CODEBOOKS)
def test_malformed_codebook_names_the_field(tmp_path, codebook_doc, case):
    keys, change, message = MALFORMED_CODEBOOKS[case]
    path = tmp_path / "cb.json"
    path.write_text(json.dumps(edited(codebook_doc, keys, change)))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_codebook(path)


def test_malformed_codeword_and_hybrid_name_the_field(tmp_path):
    path = tmp_path / "x.json"
    for load, doc, message in (
        (load_codeword, {"entries": [[1.0, 0.0]]}, "missing field n"),
        (load_codeword, {"n": 1, "entries": [[1.0]]}, "field entries"),
        (load_codeword, {"n": 1, "entries": [[2**1024, 0.0]]}, "field entries"),
        (load_hybrid, {"n_rf": 1, "b": 2, "analog_phase_indices": [[0]],
                       "digital": [[0.0, -10**400]]}, "field digital"),
        (load_hybrid, {"n_rf": 1, "b": 17, "analog_phase_indices": [[0]],
                       "digital": [[1.0, 0.0]]},
         re.escape("bits must be in [1, 16] and an integer, got 17")),
        (load_hybrid, {"n_rf": 1, "b": 2, "analog_phase_indices": [[0]],
                       "digital": [[float("nan"), 0.0]]},
         "digital must be 1 finite entries"),
    ):
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load(path)


def _scalar_pairs(v):
    """[re, im] pairs taken one numpy scalar at a time."""
    return [[float(x.real), float(x.imag)] for x in np.asarray(v, dtype=complex)]


def test_files_hold_the_pure_python_encoders_text(tmp_path):
    # files are encoded in one shot by json's C encoder, from pairs taken in
    # one tolist(); the text must be what the pure-Python encoder writes for
    # pairs taken one scalar at a time: -0.0, subnormals, 1e308, integral
    # floats and ints past 64 bits included
    odd = np.array([-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
                    3.0, 2.0**60, 0.1])
    v = odd + 1j * odd[::-1]
    cb = build_codebook(4, m=2, k=16, r_max=20, seed=1, hw={"n_rf": 2, "b": 3, "t_max": 2})

    def odd_entry(i, e):
        # a coverage ending at -0.0, and slices of v as codeword and digital
        lo, hi = e.coverage
        h = e.hybrid
        return CodebookEntry((lo, -0.0 if hi == 0.0 else hi), v[i:i + 4],
                             HybridCodeword(h.phase_indices, h.bits, v[i + 1:i + 1 + h.n_rf]))

    with np.errstate(over="ignore"):  # the realized codewords overflow
        layers = [[odd_entry(i, e) for i, e in enumerate(layer)] for layer in cb.layers]
    cb = HierarchicalCodebook(4, 2, 2**80 + 1, layers, method=cb.method,
                              hw={"n_rf": 2, "b": 3, "t_max": 10**30})

    def hybrid_doc(h):
        return {"n_rf": h.n_rf, "b": h.bits,
                "analog_phase_indices": h.phase_indices.astype(int).tolist(),
                "digital": _scalar_pairs(h.digital)}

    doc = {"n": cb.n, "m": cb.m, "s": cb.s, "seed": cb.seed, "method": cb.method, "hw": cb.hw,
           "layers": [[{"coverage": list(e.coverage), "ideal": _scalar_pairs(e.ideal),
                        "hybrid": hybrid_doc(e.hybrid) if e.hybrid else None}
                       for e in layer] for layer in cb.layers]}
    for save, value, want in (
        (save_codeword, v, {"n": v.size, "entries": _scalar_pairs(v)}),
        (save_hybrid, cb.layers[0][1].hybrid, hybrid_doc(cb.layers[0][1].hybrid)),
        (save_codebook, cb, doc),
    ):
        path = tmp_path / "x.json"
        save(value, path)
        text = path.read_text()
        assert text == "".join(json.JSONEncoder().iterencode(want)) + "\n"
    assert "-0.0" in text and "5e-324" in text and "1e+308" in text and "3.0" in text
    assert str(2**80 + 1) in text and str(10**30) in text
    with np.errstate(over="ignore"):
        loaded = load_codebook(path)
    assert loaded.seed == 2**80 + 1 and loaded.hw["t_max"] == 10**30
    for la, lb in zip(cb.layers, loaded.layers):
        for a, b in zip(la, lb):
            assert a.ideal.tobytes() == b.ideal.tobytes()
            assert a.hybrid.digital.tobytes() == b.hybrid.digital.tobytes()

import re

import numpy as np
import pytest

import beamkit.codebook
from beamkit import (
    CodebookEntry,
    HierarchicalCodebook,
    SynthesisError,
    build_codebook,
    fs_altmin,
    layer_count,
    steering_vector,
    training_test_count,
)
from beamkit.practical import design_nrf1, phase_set


def test_layer_count():
    assert layer_count(16, 2) == 4
    assert layer_count(8, 2) == 3
    assert layer_count(27, 3) == 3
    for n, m in ((8, 1), (9, 2), (1, 2), (0, 2)):
        with pytest.raises(ValueError):
            layer_count(n, m)


def test_training_test_count_values():
    assert training_test_count(16, 8, 2) == 14
    assert training_test_count(32, 32, 2) == 2 * 5 + 2 * 5
    with pytest.raises(ValueError):
        training_test_count(0, 8, 2)


def test_layers_tile_the_domain():
    cb = build_codebook(8, m=2, k=64, r_max=400, seed=0)
    assert cb.s == 3
    for s, layer in enumerate(cb.layers, start=1):
        assert len(layer) == 2**s
        width = 2.0 / 2**s
        for i, entry in enumerate(layer):
            lo, hi = entry.coverage
            assert lo == pytest.approx(-1.0 + i * width)
            assert hi == pytest.approx(lo + width)
        assert layer[-1].coverage[1] == pytest.approx(1.0)


def test_bottom_layer_is_steering_vectors():
    cb = build_codebook(8, m=2, k=64, r_max=400, seed=0)
    for entry in cb.bottom:
        lo, hi = entry.coverage
        expect = steering_vector(8, 0.5 * (lo + hi))
        np.testing.assert_allclose(entry.ideal, expect, atol=1e-12)


def test_upper_layers_are_synthesized_unit_norm():
    cb = build_codebook(8, m=2, k=64, r_max=400, seed=0)
    for layer in cb.layers[:-1]:
        for entry in layer:
            assert np.linalg.norm(entry.ideal) == pytest.approx(1.0, abs=1e-9)
            assert entry.hybrid is None


def test_build_deterministic_and_seed_sensitive():
    kw = dict(m=2, k=64, r_max=400)
    cb1 = build_codebook(8, seed=5, **kw)
    cb2 = build_codebook(8, seed=5, **kw)
    cb3 = build_codebook(8, seed=6, **kw)
    for l1, l2 in zip(cb1.layers, cb2.layers):
        for e1, e2 in zip(l1, l2):
            np.testing.assert_array_equal(e1.ideal, e2.ideal)
    assert not np.allclose(cb1.layers[0][0].ideal, cb3.layers[0][0].ideal)


def test_entry_reproducible_in_isolation():
    # any single codeword can be rebuilt from (master seed, layer, index)
    from beamkit import make_target, ps_icd
    from beamkit.codebook import _entry_seed

    cb = build_codebook(8, m=2, k=64, r_max=400, seed=5)
    target = make_target("rect", (-1.0, -0.5))
    expect = ps_icd(target, 8, 64, 400, seed=_entry_seed(5, 2, 1))
    np.testing.assert_array_equal(cb.layers[1][0].ideal, expect)


def test_ls_method():
    cb = build_codebook(8, m=2, k=64, r_max=400, seed=0, method="ls-icd")
    # LS design is deterministic: rebuild one codeword directly
    from beamkit import ls_icd, make_target

    target = make_target("rect", (-1.0, 0.0))
    np.testing.assert_allclose(
        cb.layers[0][0].ideal, ls_icd(target, 8, 64), atol=1e-12
    )
    with pytest.raises(ValueError):
        build_codebook(8, method="omp")


def test_hw_codebook_carries_hybrids():
    cb = build_codebook(8, m=2, k=64, r_max=400, seed=0,
                        hw={"n_rf": 2, "b": 4})
    assert cb.hw["t_max"] == 50
    for layer in cb.layers:
        for entry in layer:
            assert entry.hybrid is not None
            assert entry.hybrid.n_rf in (1, 2)
            nrm = np.linalg.norm(entry.codeword(practical=True))
            assert nrm == pytest.approx(1.0, abs=1e-9)
    # bottom layer uses the single-chain quantized steering design
    assert all(e.hybrid.n_rf == 1 for e in cb.bottom)


def test_entry_and_children_accessors():
    cb = build_codebook(8, m=2, k=64, r_max=400, seed=0)
    with pytest.raises(ValueError):
        cb.layers[0][0].codeword(practical=True)


def test_build_failure_reports_location(monkeypatch):
    def collapse(targets, n, k, r_max, seeds):  # the stack fails at its first entry
        raise SynthesisError("designed vector 0 collapsed to zero", 0)

    monkeypatch.setattr(beamkit.codebook, "ps_icd", collapse)
    with pytest.raises(RuntimeError, match="layer 1, index 1"):
        build_codebook(16, m=2, k=128, r_max=100, seed=0)


def test_build_factors_every_synthesized_layer_in_one_call(monkeypatch):
    # one stacked fs_altmin call for the synthesized entries of every layer,
    # whose entries equal their own calls; a failing entry is still named by
    # layer and index
    hw = {"n_rf": 3, "b": 4, "t_max": 3}
    real = beamkit.codebook.fs_altmin
    shapes = []

    def recorded(v, *args, **kwargs):
        shapes.append(np.shape(v))
        return real(v, *args, **kwargs)

    monkeypatch.setattr(beamkit.codebook, "fs_altmin", recorded)
    cb = build_codebook(16, k=64, r_max=100, seed=3, hw=hw)
    assert shapes == [(14, 16)]
    for s, layer in enumerate(cb.layers[:-1], 1):
        for i, e in enumerate(layer, 1):
            one = real(e.ideal, 3, 4, t_max=3, seed=beamkit.codebook._entry_seed(3, s, i))
            assert one.phase_indices.tobytes() == e.hybrid.phase_indices.tobytes()
            assert one.digital.tobytes() == e.hybrid.digital.tobytes()

    bad = cb.layers[1][2].ideal

    def failing(v, *args, **kwargs):  # fs_altmin with bad zeroed
        return real(np.array([0 * row if np.array_equal(row, bad) else row for row in v]),
                    *args, **kwargs)

    monkeypatch.setattr(beamkit.codebook, "fs_altmin", failing)
    with pytest.raises(RuntimeError, match="layer 2, index 3$"):
        build_codebook(16, k=64, r_max=100, seed=3, hw=hw)


def _zeroing(real, bad):
    """fs_altmin with every row equal to the codeword bad zeroed."""
    def call(v, *args, **kwargs):
        return real(np.array([0 * row if np.array_equal(row, bad) else row for row in v]),
                    *args, **kwargs)
    return call


@pytest.mark.parametrize("s, i", [(1, 2), (3, 8)])
def test_build_names_a_failing_factorization_by_layer_and_index(monkeypatch, s, i):
    # an entry of the first synthesized layer, and the last entry of the
    # last one (the stack's last row), map back to their places
    kw = dict(k=64, r_max=100, seed=3, hw={"n_rf": 2, "b": 4, "t_max": 2})
    bad = build_codebook(16, **kw).layers[s - 1][i - 1].ideal
    monkeypatch.setattr(beamkit.codebook, "fs_altmin",
                        _zeroing(beamkit.codebook.fs_altmin, bad))
    with pytest.raises(RuntimeError, match=f"layer {s}, index {i}$") as err:
        build_codebook(16, **kw)
    assert isinstance(err.value.__cause__, SynthesisError)


def test_build_reports_an_ideal_failure_before_any_factorization_failure(monkeypatch):
    # every ideal codeword is designed before any is factored, so an ideal
    # design failing in layer 3 wins over a factorization failing in layer 1
    kw = dict(k=64, r_max=100, seed=3, hw={"n_rf": 2, "b": 4, "t_max": 2})
    bad = build_codebook(16, **kw).layers[0][0].ideal
    real_ps_icd = beamkit.codebook.ps_icd

    def ps_icd(targets, n, k, r_max, seeds):
        failing = seeds.index(beamkit.codebook._entry_seed(3, 3, 5))
        real_ps_icd(targets, n, k, r_max, seeds)
        raise SynthesisError(f"designed vector {failing} collapsed to zero", failing)

    monkeypatch.setattr(beamkit.codebook, "fs_altmin",
                        _zeroing(beamkit.codebook.fs_altmin, bad))
    monkeypatch.setattr(beamkit.codebook, "ps_icd", ps_icd)
    with pytest.raises(RuntimeError, match="layer 3, index 5$"):
        build_codebook(16, **kw)


@pytest.mark.parametrize("m, n", [(2, 16), (3, 27)])
@pytest.mark.parametrize("t_max", [0, 3])
@pytest.mark.parametrize("n_rf", [1, 2, 3, 4])
def test_build_hybrids_equal_one_fs_altmin_call_per_entry(m, n, t_max, n_rf):
    # the stacked factorization of every synthesized layer gives each entry
    # the hybrid of its own call; the bottom layer quantizes steering vectors
    b = 4
    cb = build_codebook(n, m=m, k=64, r_max=100, seed=2,
                        hw={"n_rf": n_rf, "b": b, "t_max": t_max})
    for s, layer in enumerate(cb.layers, 1):
        for i, e in enumerate(layer, 1):
            if s < cb.s:
                one = fs_altmin(e.ideal, n_rf, b, t_max=t_max,
                                seed=beamkit.codebook._entry_seed(2, s, i))
            else:
                one = design_nrf1(e.ideal, phase_set(b))
            assert one.phase_indices.tobytes() == e.hybrid.phase_indices.tobytes()
            assert one.digital.tobytes() == e.hybrid.digital.tobytes()


def test_build_rejects_grid_smaller_than_array():
    with pytest.raises(ValueError, match="k must be >= 16 and an integer, got 8"):
        build_codebook(16, m=2, k=8, r_max=100, seed=0)


@pytest.mark.parametrize("n, m", [(12, 2), (8, 3), (1, 2)])
def test_build_rejects_antenna_count_not_power_of_m(n, m):
    # n = 12 would otherwise get a fourth layer of beams narrower than 2/n
    with pytest.raises(ValueError, match=r"m\^s with s >= 1"):
        build_codebook(n, m=m, k=128, r_max=100, seed=0)


@pytest.mark.parametrize("r_max, hw, named", [
    (-1, None, "r_max"),
    (10, {"n_rf": 2, "b": 4, "t_max": -1}, "t_max"),
])
def test_build_rejects_negative_iteration_counts(r_max, hw, named):
    with pytest.raises(ValueError, match=f"{named} must be >= 0"):
        build_codebook(4, k=8, r_max=r_max, seed=0, hw=hw)


def _short_ideal(layers):
    layers = [list(layer) for layer in layers]
    e = layers[1][2]
    layers[1][2] = CodebookEntry(e.coverage, e.ideal[:-1])
    return layers


@pytest.mark.parametrize("edit, message", [
    (lambda layers: layers[:2], "n = 8 needs 3 layers, got 2"),
    (lambda layers: [layers[0], layers[1][:3], layers[2]],
     "layer 2 has 3 entries, expected 4"),
    (_short_ideal, "layer 2 entry 3: codeword length is not n = 8"),
], ids=["layers", "entries", "length"])
def test_hand_built_codebook_checks_its_shape(edit, message):
    # the same messages load_codebook gives for a file of that shape
    layers = build_codebook(8, k=16, r_max=10, seed=0).layers
    HierarchicalCodebook(8, 2, 0, layers)
    with pytest.raises(ValueError, match=re.escape(message)):
        HierarchicalCodebook(8, 2, 0, edit(layers))


@pytest.mark.parametrize("hw, message", [
    ({"n_rf": 2, "b": 4, "tmax": 3}, "got ['n_rf', 'b', 'tmax', 't_max']"),
    ({"nrf": 2, "b": 4}, "got ['nrf', 'b', 't_max']"),
    ({"n_rf": 2}, "got ['n_rf', 't_max']"),
    ({"n_rf": 2, "b": 4.0}, "hw b must be in [1, 16] and an integer, got 4.0"),
    ({"n_rf": True, "b": 4}, "hw n_rf must be in [1, 4] and an integer, got True"),
    ({"n_rf": 2, "b": 17}, "hw b must be in [1, 16] and an integer, got 17"),
], ids=["tmax", "nrf", "no-b", "float-b", "bool-n_rf", "b-17"])
def test_build_rejects_a_bad_hw_header(hw, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build_codebook(4, k=8, r_max=10, seed=0, hw=hw)


@pytest.mark.parametrize("hw", [[1, 2], 5, "n_rf"])
def test_a_non_dict_hw_is_rejected_by_name(hw):
    # build_codebook spread a list into a dict (TypeError), and the
    # codebook read the keys of an int (AttributeError)
    message = re.escape(f"hw must be None or a dict, got {hw!r}")
    with pytest.raises(ValueError, match=message):
        build_codebook(4, k=8, r_max=10, seed=0, hw=hw)
    layers = build_codebook(4, k=8, r_max=10, seed=0).layers
    with pytest.raises(ValueError, match=message):
        HierarchicalCodebook(4, 2, 0, layers, hw=hw)



def test_numpy_int_counts_save_as_ints_and_float_counts_fail_first(tmp_path,
                                                                   monkeypatch):
    # numpy integers are stored as Python ints, so the codebook saves (the
    # JSON encoder rejects np.int64); the caller's hw dict is left alone
    from beamkit.serialization import load_codebook, save_codebook

    def saved(name, cb):
        path = tmp_path / f"{name}.json"
        save_codebook(cb, path)
        return path.read_bytes()

    base = dict(n=8, m=2, k=16, r_max=20, seed=3)
    hw = {"n_rf": 2, "b": 4, "t_max": 3}
    want = saved("int", build_codebook(**base, hw=hw))
    np_hw = {key: np.int64(value) for key, value in hw.items()}
    cb = build_codebook(**{key: np.int64(value) for key, value in base.items()},
                        hw=np_hw)
    assert saved("numpy", cb) == want
    assert all(type(value) is int for value in (cb.n, cb.m, cb.seed, *cb.hw.values()))
    assert all(type(value) is np.int64 for value in np_hw.values())
    assert saved("loaded", load_codebook(tmp_path / "numpy.json")) == want

    # a float count is rejected before any codeword is designed
    def design(*args, **kwargs):
        raise AssertionError("a codeword was designed")

    monkeypatch.setattr(beamkit.codebook, "ps_icd", design)
    for key, value in (("n", 8.0), ("m", 2.0), ("k", 16.0), ("r_max", 20.0),
                       ("seed", 2.5)):
        with pytest.raises(ValueError, match=f"{key} must be >= .* and an "
                                             f"integer, got {value}"):
            build_codebook(**{**base, key: value}, hw=hw)
    with pytest.raises(ValueError, match=re.escape(
            "hw b must be in [1, 16] and an integer, got 4.0")):
        build_codebook(**base, hw={**hw, "b": 4.0})

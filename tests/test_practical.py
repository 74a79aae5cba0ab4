import itertools
import math
import re

import numpy as np
import pytest

import beamkit.practical
from beamkit import (
    HybridCodeword,
    deviation,
    fs_altmin,
    fs_row,
    ls_fbb,
    phase_set,
    ps_icd,
)
from beamkit import SynthesisError, build_codebook, make_target
from beamkit.practical import (
    _quantize_index,
    _two_rf_phases,
    _two_rf_setup,
    _two_rf_solve,
    design_nrf1,
    wrap_phase,
)


def _continuous_branches(gamma, f1, f2):
    """The continuous branches of the two-phasor match, (2, 2, M): branch a
    then b, each (theta1, theta2)."""
    setup = _two_rf_setup(f1, f2, phase_set(1))
    return _two_rf_phases(gamma, np.abs(gamma), setup)


def _solve(gamma, f1, f2, pset):
    """The quantized two-phasor match of the complex targets gamma."""
    return _two_rf_solve(gamma, np.abs(gamma), _two_rf_setup(f1, f2, pset))


def _solve_one(alpha, beta, z1, p1, z2, p2):
    """Continuous match of one target alpha e^{j beta} with digital entries
    z1 e^{j p1} and z2 e^{j p2}, branch a of the closed form; returns
    (theta1, theta2, residual)."""
    gamma = np.array([alpha * np.exp(1j * beta)])
    f1, f2 = z1 * np.exp(1j * p1), z2 * np.exp(1j * p2)
    th1, th2 = _continuous_branches(gamma, f1, f2)[0]
    res = np.abs(gamma - f1 * np.exp(1j * th1) - f2 * np.exp(1j * th2))
    return float(th1[0]), float(th2[0]), float(res[0])


def test_phase_set_values():
    ps = phase_set(2)
    np.testing.assert_allclose(
        ps.values, [-0.75 * np.pi, -0.25 * np.pi, 0.25 * np.pi, 0.75 * np.pi]
    )
    assert ps.size == 4
    with pytest.raises(ValueError):
        phase_set(0)


def test_quantize_member_maps_to_itself():
    # members of Phi_6 are odd multiples of pi/64 with spacing pi/32
    ps = phase_set(6)
    assert ps.size == 64
    assert ps.values[_quantize_index(np.pi / 64, ps.bits)] == pytest.approx(
        np.pi / 64, abs=1e-12)
    for member in ps.values:
        assert ps.values[_quantize_index(member, ps.bits)] == pytest.approx(
            member, abs=1e-12)


def test_quantize_tie_breaks_to_smaller_value():
    # theta = 0 is equidistant from -pi/2 and +pi/2 when b = 1
    ps = phase_set(1)
    assert ps.values[_quantize_index(0.0, ps.bits)] == pytest.approx(-np.pi / 2)


def test_quantize_matches_linear_scan():
    for bits in (1, 2, 3, 6):
        ps = phase_set(bits)
        rng = np.random.default_rng(bits)
        thetas = rng.uniform(-10, 10, 10000)
        idx = _quantize_index(thetas, bits)
        # independent oracle: circular distance scan over all members
        d = np.abs(wrap_phase(thetas[:, None] - ps.values[None, :]))
        best = np.min(d, axis=1)
        chosen = np.abs(wrap_phase(thetas - ps.values[idx]))
        np.testing.assert_allclose(chosen, best, atol=1e-12)


def test_wrap_phase_range():
    x = wrap_phase(np.array([-np.pi, np.pi, 3 * np.pi, -7.5]))
    assert np.all(x >= -np.pi) and np.all(x < np.pi)
    # just below -pi, (theta + pi) mod 2 pi rounds up to 2 pi: the one
    # documented +pi, which quantizes to the nearest member, the last
    below = np.nextafter(-np.pi, -4)
    assert wrap_phase(below) == np.pi
    assert _quantize_index(below, 3) == 7


def test_design_nrf1_quantizes_each_phase():
    ps = phase_set(4)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    v /= np.linalg.norm(v)
    h = design_nrf1(v, ps)
    np.testing.assert_array_equal(
        h.phase_indices[:, 0], _quantize_index(np.angle(v), 4)
    )
    assert np.linalg.norm(h.realized) == pytest.approx(1.0, abs=1e-12)


def test_design_nrf1_constant_modulus_input():
    # a steering vector's realized phases are the quantized steering phases
    ps = phase_set(6)
    omega = 0.37
    v = np.exp(1j * np.pi * np.arange(8) * omega) / np.sqrt(8)
    h = design_nrf1(v, ps)
    expect = ps.values[_quantize_index(np.pi * np.arange(8) * omega, 6)]
    np.testing.assert_allclose(np.angle(h.realized * np.sqrt(8)), expect, atol=1e-12)


def test_two_rf_trivial_alignment():
    th1, th2, res = _solve_one(2.0, 0.0, 1.0, 0.0, 1.0, 0.0)
    assert th1 == pytest.approx(0.0, abs=1e-12)
    assert th2 == pytest.approx(0.0, abs=1e-12)
    assert res == pytest.approx(0.0, abs=1e-12)


def test_two_rf_sqrt2_branch():
    th1, th2, res = _solve_one(np.sqrt(2.0), 0.0, 1.0, 0.0, 1.0, 0.0)
    assert sorted([th1, th2]) == pytest.approx([-np.pi / 4, np.pi / 4], abs=1e-10)
    assert res < 1e-12


def test_two_rf_continuous_exact_for_feasible():
    rng = np.random.default_rng(1)
    for _ in range(200):
        z1, z2 = rng.uniform(0.2, 1.5, 2)
        alpha = rng.uniform(abs(z1 - z2), z1 + z2)
        _, _, res = _solve_one(
            alpha, rng.uniform(-np.pi, np.pi), z1,
            rng.uniform(-np.pi, np.pi), z2, rng.uniform(-np.pi, np.pi),
        )
        assert res < 1e-10


def test_two_rf_infeasible_clamps_to_best_effort():
    # target beyond reach: both phasors align with it
    th1, th2, res = _solve_one(5.0, 0.3, 1.0, 0.0, 1.0, 0.0)
    assert th1 == pytest.approx(0.3, abs=1e-10)
    assert th2 == pytest.approx(0.3, abs=1e-10)
    assert res == pytest.approx(3.0, abs=1e-10)
    # target inside the unreachable ring: anti-aligned phasors
    _, _, res = _solve_one(0.1, 0.0, 1.0, 0.0, 0.5, 0.0)
    assert res == pytest.approx(0.4, abs=1e-10)


def test_two_rf_degenerate_magnitudes():
    th1, th2, res = _solve_one(1.0, 0.5, 1.0, 0.0, 0.0, 0.0)
    assert th1 == pytest.approx(0.5, abs=1e-12)
    assert res == pytest.approx(0.0, abs=1e-12)
    _, _, res = _solve_one(0.0, 0.0, 1.0, 0.0, 1.0, 0.0)
    assert res == pytest.approx(0.0, abs=1e-10)


def _two_rf_exhaustive(target, f1, f2, ps):
    best = np.inf
    for t1, t2 in itertools.product(ps.values, repeat=2):
        r = abs(target - f1 * np.exp(1j * t1) - f2 * np.exp(1j * t2))
        best = min(best, r)
    return best


def test_two_rf_quantized_near_exhaustive():
    ps = phase_set(2)
    rng = np.random.default_rng(2)
    hits = 0
    for _ in range(300):
        z1, z2 = rng.uniform(0.2, 1.5, 2)
        alpha, beta = rng.uniform(abs(z1 - z2), z1 + z2), rng.uniform(-np.pi, np.pi)
        target = alpha * np.exp(1j * beta)
        f1 = z1 * np.exp(1j * rng.uniform(-np.pi, np.pi))
        f2 = z2 * np.exp(1j * rng.uniform(-np.pi, np.pi))
        res = _solve(np.array([target]), f1, f2, ps)[2][0]
        best = _two_rf_exhaustive(target, f1, f2, ps)
        assert res <= best + (z1 + z2) * np.pi / 4 + 1e-12
        hits += res <= best + 1e-9
    # quantizing the continuous optimum should usually hit the 16-cell optimum
    assert hits >= 150


def _two_rf_reference(gamma, f1, f2, ps):
    """Plain loop over the 18 candidate pairs: branch a then b, each rounded
    pair with index offsets (d1, d2) in row-major order; only a strict
    improvement replaces the incumbent, so ties keep the earliest candidate.
    Also counts later distinct pairs that tie the incumbent exactly."""
    best = [(np.inf, -1, -1)] * gamma.size
    ties = 0
    for th1, th2 in _continuous_branches(gamma, f1, f2):
        r1 = _quantize_index(th1, ps.bits)
        r2 = _quantize_index(th2, ps.bits)
        for d1 in (-1, 0, 1):
            for d2 in (-1, 0, 1):
                j1 = (r1 + d1) % ps.size
                j2 = (r2 + d2) % ps.size
                res = np.abs(gamma - f1 * np.exp(1j * ps.values[j1])
                             - f2 * np.exp(1j * ps.values[j2]))
                for g in range(gamma.size):
                    if res[g] < best[g][0]:
                        best[g] = (res[g], j1[g], j2[g])
                    elif res[g] == best[g][0] and (j1[g], j2[g]) != best[g][1:]:
                        ties += 1
    return best, ties


@pytest.mark.parametrize("bits", [1, 2, 6])
def test_two_rf_solve_matches_candidate_loop(bits):
    ps = phase_set(bits)
    rng = np.random.default_rng(bits)
    ties = 0
    for trial in range(40):
        f1, f2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        if trial % 4 == 0:
            f2 = f1  # equal phasors: swapped pairs tie exactly at gamma = 0
        gamma = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        gamma[:5] = 0.0
        i1, i2, res = _solve(gamma, f1, f2, ps)
        ref, n = _two_rf_reference(gamma, f1, f2, ps)
        ties += n
        np.testing.assert_array_equal(res, [r for r, _, _ in ref])
        np.testing.assert_array_equal(i1, [j for _, j, _ in ref])
        np.testing.assert_array_equal(i2, [j for _, _, j in ref])
    assert ties > 0  # the first-minimum rule was exercised


def _row_exhaustive(target, fbb, ps):
    best = np.inf
    for combo in itertools.product(range(ps.size), repeat=fbb.size):
        r = abs(target - np.sum(fbb * np.exp(1j * ps.values[list(combo)])))
        best = min(best, r)
    return best


def test_fs_row_representable_target_reaches_zero():
    ps = phase_set(2)
    rng = np.random.default_rng(3)
    for trial in range(20):
        fbb = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        delta = ps.values[rng.integers(0, 4, 3)]
        target = np.sum(fbb * np.exp(1j * delta))
        _, res, _ = fs_row([target], fbb, ps, rng.integers(0, 4, (1, 3)))
        assert res[0] <= _row_exhaustive(target, fbb, ps) + 1e-9


def test_fs_row_monotone_history_and_cap(monkeypatch):
    ps = phase_set(2)
    rng = np.random.default_rng(4)
    for trial in range(50):
        fbb = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        target = complex(rng.standard_normal(), rng.standard_normal())
        init = rng.integers(0, 4, (1, 4))
        _, res, iters = fs_row([target], fbb, ps, init)
        assert iters <= 64 * 2
        # a cap of c cycles stops the same search after 2c steps (n_rf = 4),
        # so raising c from 0 replays the residual history every two steps
        hist = []
        for c in range((iters + 1) // 2 + 1):
            monkeypatch.setattr(beamkit.practical, "_ROW_CAP_PER_PHASE", c)
            hist.append(fs_row([target], fbb, ps, init)[1][0])
        monkeypatch.undo()
        assert np.all(np.diff(hist) <= 1e-12)
        assert res[0] == hist[-1]
    # targets the phases represent exactly, equal digital entries (the
    # ledger's tie runs): many candidates come within roundoff of each other,
    # so a row that accepted a worse one would show a rising residual
    for b, n_rf in itertools.product((1, 2), (3, 4)):
        ps = phase_set(b)
        rng = np.random.default_rng([b, n_rf])
        fbb = np.ones(n_rf, dtype=complex)
        exact = rng.integers(0, ps.size, (16, n_rf))
        target = np.sum(fbb * ps.phasors[exact], axis=1)
        init = rng.integers(0, ps.size, (16, n_rf))
        _, res, iters = fs_row(target, fbb, ps, init)
        hist = []
        for c in range(-(-iters // (n_rf - 2)) + 1):
            monkeypatch.setattr(beamkit.practical, "_ROW_CAP_PER_PHASE", c)
            hist.append(fs_row(target, fbb, ps, init)[1])
        monkeypatch.undo()
        assert np.all(np.diff(hist, axis=0) <= 0.0), (b, n_rf)
        np.testing.assert_array_equal(res, hist[-1])


def test_fs_row_never_worse_than_init():
    ps = phase_set(1)
    rng = np.random.default_rng(5)
    for trial in range(50):
        fbb = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        target = complex(rng.standard_normal(), rng.standard_normal())
        init = rng.integers(0, 2, (1, 3))
        init_res = abs(target - np.sum(fbb * np.exp(1j * ps.values[init[0]])))
        _, res, _ = fs_row([target], fbb, ps, init)
        assert res[0] <= init_res + 1e-12


def test_fs_row_requires_three_chains():
    ps = phase_set(2)
    with pytest.raises(ValueError):
        fs_row([1.0 + 0j], np.ones(2, dtype=complex), ps,
               np.zeros((1, 2), dtype=int))


def test_ls_fbb_matches_lstsq():
    rng = np.random.default_rng(6)
    ps = phase_set(4)
    analog = np.exp(1j * ps.values[rng.integers(0, 16, (12, 3))])
    v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    f = ls_fbb(analog, v)
    expect, *_ = np.linalg.lstsq(analog, v, rcond=None)
    np.testing.assert_allclose(f, expect, atol=1e-10)


def test_ls_fbb_rank_deficient_warns():
    analog = np.ones((8, 2), dtype=complex)  # duplicated columns
    v = np.ones(8, dtype=complex)
    with pytest.warns(RuntimeWarning):
        f = ls_fbb(analog, v)
    np.testing.assert_allclose(analog @ f, v, atol=1e-10)


def test_ls_fbb_decides_its_fallback_by_one_cond(monkeypatch):
    # one SVD of the Gram per call: a 32 x 4 quantized analog matrix is
    # solved by np.linalg.solve bit for bit, and with a column duplicated
    # ls_fbb warns and takes the pseudo-inverse
    svds = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda g: svds.append(g) or cond(g))
    rng = np.random.default_rng(8)
    analog = phase_set(6).phasors[rng.integers(0, 64, (32, 4))]
    v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    gram = analog.conj().T @ analog
    assert ls_fbb(analog, v).tobytes() == \
        np.linalg.solve(gram, analog.conj().T @ v).tobytes()
    assert len(svds) == 1 and svds[0].tobytes() == gram.tobytes()
    analog[:, 3] = analog[:, 1]
    with pytest.warns(RuntimeWarning, match="pseudo-inverse") as caught:
        f = ls_fbb(analog, v)
    assert len(svds) == 2 and len(caught) == 1
    assert f.tobytes() == (np.linalg.pinv(analog) @ v).tobytes()


def test_fs_altmin_residual_trace_non_increasing():
    target = make_target("rect", (-1.0, 0.0))
    v = ps_icd(target, 16, 64, 500, seed=0)
    for n_rf in (2, 3, 4):
        trace = []
        fs_altmin(v, n_rf, 4, t_max=30, seed=1, trace=trace)
        assert np.all(np.diff(trace) <= 1e-12)


def test_fs_altmin_realized_unit_norm_and_quantized():
    target = make_target("rect", (-1.0, 0.0))
    v = ps_icd(target, 16, 64, 500, seed=0)
    h = fs_altmin(v, 3, 4, seed=0)
    assert np.linalg.norm(h.realized) == pytest.approx(1.0, abs=1e-9)
    assert h.phase_indices.dtype.kind == "i"
    assert np.all((h.phase_indices >= 0) & (h.phase_indices < 16))
    np.testing.assert_allclose(np.abs(h.analog), 1.0, atol=1e-12)


def test_fs_altmin_single_chain_dispatch():
    target = make_target("rect", (-1.0, 0.0))
    v = ps_icd(target, 16, 64, 500, seed=0)
    h = fs_altmin(v, 1, 6)
    ref = design_nrf1(v, phase_set(6))
    np.testing.assert_array_equal(h.phase_indices, ref.phase_indices)
    np.testing.assert_allclose(h.digital, ref.digital)


@pytest.mark.parametrize("n_rf", [1, 3])
def test_fs_altmin_without_iterations_returns_the_seeded_start(n_rf):
    # t_max = 0 skips the design_nrf1 dispatch: no n_rf redesigns a row
    target = make_target("rect", (-1.0, 0.0))
    v = ps_icd(target, 16, 64, 500, seed=0)
    trace = []
    h = fs_altmin(v, n_rf, 4, t_max=0, seed=5, trace=trace)
    idx = np.random.default_rng(5).integers(0, 16, size=(16, n_rf))
    analog = phase_set(4).phasors[idx]
    fbb = ls_fbb(analog, v)
    np.testing.assert_array_equal(h.phase_indices, idx)
    np.testing.assert_array_equal(h.digital, fbb / np.linalg.norm(analog @ fbb))
    assert trace == [float(np.linalg.norm(v - analog @ fbb))]
    if n_rf == 1:
        assert np.any(idx != design_nrf1(v, phase_set(4)).phase_indices)


def test_fs_altmin_more_chains_do_not_hurt_much():
    target = make_target("rect", (-1.0, 0.0))
    v = ps_icd(target, 32, 128, 2000, seed=0)
    devs = {}
    for n_rf in (1, 2, 4):
        h = fs_altmin(v, n_rf, 6, seed=3)
        devs[n_rf] = deviation(v, h.realized)
    assert devs[4] < devs[1]


def test_fs_altmin_validates_n_rf():
    v = np.ones(4, dtype=complex) / 2
    with pytest.raises(ValueError):
        fs_altmin(v, 0, 4)
    with pytest.raises(ValueError):
        fs_altmin(v, 5, 4)


def test_fs_altmin_rejects_fractional_counts_by_name():
    # a float n_rf used to reach numpy, which raised TypeError
    v = np.ones(4, dtype=complex) / 2
    for args, named in (((2.5, 4), "n_rf must be in [1, 4]"),
                        ((2, 4.0), "b must be in [1, 16]"),
                        ((2, 4, 1.5), "t_max must be >= 0")):
        with pytest.raises(ValueError, match=re.escape(named + " and an integer")):
            fs_altmin(v, *args)


def test_ls_fbb_rejects_non_finite_input():
    # a NaN target used to warn "rank deficient" and return NaN
    analog = phase_set(2).phasors[np.array([[0, 1], [0, 2], [1, 1]])]
    v = np.array([1.0, 0.5j, -0.25])
    with pytest.raises(ValueError, match="v has norm nan"):
        ls_fbb(analog, np.array([1.0, np.nan, 0.0]))
    bad = analog.copy()
    bad[1, 0] = np.inf
    with pytest.raises(ValueError, match="analog has norm inf"):
        ls_fbb(bad, v)
    assert np.all(np.isfinite(ls_fbb(analog, v)))


@pytest.mark.parametrize("analog_shape, v_shape, message", [
    # a 2-D v returned a matrix, a v of the wrong length raised numpy's
    # matmul error and a 1-D analog raised LinAlgError
    ((3, 2), (3, 1), re.escape("v must be 1-D of length n = 3, got shape (3, 1)")),
    ((3, 2), (4,), re.escape("v must be 1-D of length n = 3, got shape (4,)")),
    ((3,), (3,), re.escape("analog must be 2-D (n x n_rf), got shape (3,)")),
], ids=["2-D v", "v of the wrong length", "1-D analog"])
def test_ls_fbb_names_the_argument_of_the_wrong_shape(analog_shape, v_shape, message):
    analog = phase_set(2).phasors[np.arange(math.prod(analog_shape)).reshape(analog_shape) % 4]
    with pytest.raises(ValueError, match=message):
        ls_fbb(analog, np.ones(v_shape, dtype=complex))


@pytest.mark.parametrize("n_rf", [1, 2, 3])
def test_fs_altmin_rejects_negative_iteration_count(n_rf):
    v = np.ones(4, dtype=complex) / 2
    with pytest.raises(ValueError, match="t_max must be >= 0 and an integer, got -1"):
        fs_altmin(v, n_rf, 4, t_max=-1)


def test_fs_altmin_row_separability():
    # permuting antennas permutes the designed rows identically
    target = make_target("rect", (-1.0, 0.0))
    v = ps_icd(target, 12, 64, 500, seed=0)
    perm = np.random.default_rng(9).permutation(12)
    h = fs_altmin(v, 3, 4, t_max=20, seed=7)
    hp = fs_altmin(v[perm], 3, 4, t_max=20, seed=7)
    # same seed draws the same initial index matrix, which is NOT permuted,
    # so compare one extra alternation from identical fixed digital vectors
    fbb = h.digital
    idx, _, _ = fs_row(v, fbb, phase_set(4), h.phase_indices)
    idxp, _, _ = fs_row(v[perm], fbb, phase_set(4), idx[perm])
    np.testing.assert_array_equal(idxp, idx[perm])


def test_hybrid_codeword_properties():
    ps = phase_set(2)
    h = HybridCodeword(np.array([[0, 1], [2, 3]]), 2, np.array([1.0, 1j]))
    assert h.n == 2 and h.n_rf == 2
    expect = np.exp(1j * ps.values[np.array([[0, 1], [2, 3]])])
    np.testing.assert_allclose(h.analog, expect)
    np.testing.assert_allclose(h.realized, expect @ np.array([1.0, 1j]))


@pytest.mark.parametrize("indices, digital, message", [
    ([[-1, 0], [-4, 1]], [1, 1j], r"phase_indices .* in \[0, 2\^2\)"),
    ([[0, 4]], [1, 1j], r"phase_indices .* in \[0, 2\^2\)"),
    ([[0.0, 1.0]], [1, 1j], "phase_indices must be a non-empty 2-D integer"),
    ([0, 1], [1, 1j], "phase_indices must be a non-empty 2-D integer"),
    (np.zeros((0, 2), dtype=int), [1, 1j], "phase_indices must be a non-empty"),
    ([[0, 1]], [1], "digital must be 2 finite entries"),
    ([[0, 1]], [[1, 1j]], "digital must be 2 finite entries"),
    ([[0, 1]], [1, complex(0, np.nan)], "digital must be 2 finite entries"),
])
def test_hybrid_codeword_rejects_bad_indices_and_digital(indices, digital, message):
    # numpy would wrap a negative index and raise IndexError past 2^b - 1
    with pytest.raises(ValueError, match=message):
        HybridCodeword(indices, 2, digital)


def test_deviation():
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.array([0.0, 1.0], dtype=complex)
    assert deviation(a, b) == pytest.approx(np.sqrt(2.0))
    with pytest.raises(ValueError):
        deviation(a, np.ones(3, dtype=complex))


_BAD_CODEWORDS = {
    "nan": np.full(8, np.nan, dtype=complex),
    "one-inf": np.r_[np.ones(7), np.inf].astype(complex),
    "zero": np.zeros(8, dtype=complex),
}


@pytest.mark.parametrize("kind", sorted(_BAD_CODEWORDS))
@pytest.mark.parametrize("n_rf", [1, 2, 3])
def test_fs_altmin_rejects_zero_or_non_finite_input(kind, n_rf):
    with pytest.raises(SynthesisError):
        fs_altmin(_BAD_CODEWORDS[kind], n_rf, 4, t_max=3)


@pytest.mark.parametrize("kind", sorted(_BAD_CODEWORDS))
def test_design_nrf1_rejects_zero_or_non_finite_input(kind):
    with pytest.raises(SynthesisError):
        design_nrf1(_BAD_CODEWORDS[kind], phase_set(4))


@pytest.mark.parametrize("n_rf, t_max", [(1, 0), (2, 1), (2, 3)])
def test_fs_altmin_collapsed_realization_raises(n_rf, t_max):
    # with b = 1 and seed 4 every analog column starts as [j, j, j], and
    # [0, 1, -1] is orthogonal to it: the digital vector is zero, and
    # rescaling it to unit norm would give NaN
    with pytest.raises(SynthesisError, match="collapsed"):
        fs_altmin(np.array([0.0, 1.0, -1.0], dtype=complex), n_rf, 1,
                  t_max=t_max, seed=4)


def _assert_same_hybrid(got, want):
    for name in ("phase_indices", "digital", "realized"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name
    assert got.bits == want.bits


@pytest.mark.parametrize("n_rf", [2, 3])
def test_stacked_fs_altmin_entries_leave_at_their_own_fixed_points(monkeypatch,
                                                                   n_rf):
    # six entries of one stack reach their fixed points after different
    # numbers of alternations; each keeps its own start, least-squares steps
    # and exit, so it equals its own call bit for bit, with the same
    # least-squares solves in total
    rng = np.random.default_rng(5)
    v = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
    seeds = [11, 12, 13, 14, 15, 16]
    calls = []
    real_ls_stack = beamkit.practical._ls_stack

    def counted(analog, target):
        calls.extend([target.shape[1:]] * len(target))
        return real_ls_stack(analog, target)

    monkeypatch.setattr(beamkit.practical, "_ls_stack", counted)
    one, steps = [], []
    for row, seed in zip(v, seeds):
        trace = []
        one.append(fs_altmin(row, n_rf, 2, t_max=50, seed=seed, trace=trace))
        steps.append(len(trace) - 1)
    alone = len(calls)
    assert len(set(steps)) > 1 and max(steps) < 50  # every entry converged
    stacked = fs_altmin(v, n_rf, 2, t_max=50, seed=seeds)
    assert len(calls) - alone == alone
    assert len(stacked) == len(v)
    for got, want in zip(stacked, one):
        _assert_same_hybrid(got, want)


def test_stacked_fs_altmin_rejects_bad_stacks():
    v = np.ones((3, 4), dtype=complex)
    with pytest.raises(ValueError, match=re.escape(
            "seed must be 3 counts, one per codeword, got [1, 2]")):
        fs_altmin(v, 2, 4, seed=[1, 2])
    with pytest.raises(ValueError, match="seed must be 3 counts"):
        fs_altmin(v, 2, 4, seed=1)
    with pytest.raises(ValueError, match="seed must be >= 0 and an integer, got -1"):
        fs_altmin(v, 2, 4, seed=[1, -1, 2])
    with pytest.raises(ValueError, match="trace takes only a single codeword"):
        fs_altmin(v, 2, 4, seed=[1, 2, 3], trace=[])
    with pytest.raises(ValueError, match=re.escape("got shape (1, 3, 4)")):
        fs_altmin(v[None], 2, 4)
    v[1] = 0.0
    with pytest.raises(SynthesisError, match="codeword 1 to factor has norm 0.0") as err:
        fs_altmin(v, 2, 4, seed=[1, 2, 3])
    assert err.value.entry == 1
    assert fs_altmin(np.zeros((0, 4), dtype=complex), 2, 4, seed=[]) == []


def test_fs_row_rejects_digital_vectors_that_do_not_fit_the_rows():
    pset = phase_set(2)
    target = np.ones(3, dtype=complex)
    init = np.zeros((3, 3), dtype=int)
    fbb = np.ones((2, 3), dtype=complex)
    for bad, owner in [(fbb[:1], None), (fbb, None), (fbb[None], None),
                       (fbb[0], [0, 0, 0]), (fbb, [0, 1]), (fbb, [0, 1, 2]),
                       (fbb, [0, -1, 0]), (fbb, [0.0, 1.0, 0.0])]:
        with pytest.raises(ValueError, match=r"fbb must have shape \(n_rf,\), or \(G, n_rf\)"):
            fs_row(target, bad, pset, init, owner)


_INIT_RULE = re.escape("init_indices must be a 1 x 3 integer array with entries in [0, 2^2)")


@pytest.mark.parametrize("target, fbb, init, message", [
    # numpy would wrap -1 to the last phase, truncate 0.7 to 0, raise a bare
    # IndexError for 9 and a broadcast error for a fourth column
    ([1.0], [1, 1, 1], [[0, -1, 0]], _INIT_RULE),
    ([1.0], [1, 1, 1], [[0, 0.7, 0]], _INIT_RULE),
    ([1.0], [1, 1, 1], [[0, 9, 0]], _INIT_RULE),
    ([1.0], [1, 1, 1], [[0, 0, 0, 0]], _INIT_RULE),
    ([1.0], [1, 1, 1], [0, 0, 0], _INIT_RULE),
    # a NaN would give a NaN residual and leave the indices as they were
    ([complex(1, np.nan)], [1, 1, 1], [[0, 0, 0]], "target entry 0 is not finite"),
    ([1.0], [1, np.nan, 1], [[0, 0, 0]], "fbb entry 1 is not finite: \\(nan"),
    ([1.0], [1, 1, np.inf], [[0, 0, 0]], "fbb entry 2 is not finite"),
    (1.0, [1, 1, 1], [[0, 0, 0]], re.escape("target must be 1-D, got shape ()")),
])
def test_fs_row_rejects_bad_targets_digital_entries_and_indices(target, fbb, init,
                                                                message):
    with pytest.raises(ValueError, match=message):
        fs_row(target, fbb, phase_set(2), init)


def test_fs_row_checks_once_per_call(monkeypatch):
    # the checks run on fs_row's arguments, not in its search loop
    checks = []

    def counted(name):
        real = getattr(beamkit.practical, name)

        def check(*args):
            checks.append(name)
            return real(*args)
        return check

    for name in ("_finite", "_check_indices"):
        monkeypatch.setattr(beamkit.practical, name, counted(name))
    rng = np.random.default_rng(2)
    _, _, steps = fs_row(rng.standard_normal(8) + 0j, np.ones(4), phase_set(3),
                         rng.integers(0, 8, (8, 4)))
    assert steps > 1
    assert checks == ["_finite", "_finite", "_check_indices"]


def test_fs_row_names_a_target_whose_start_residual_overflows():
    # finite entries whose residual is inf: an inf incumbent accepted a
    # candidate the search had not solved, and fs_row raised IndexError
    target = np.full(4, 1.5e308 + 1.5e308j)
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=re.escape("target entry 0 is out of range: its start residual is inf")):
        fs_row(target, np.ones(3), phase_set(2), np.zeros((4, 3), int))
    target[0] = 1.0
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="target entry 1 is out"):
        fs_row(target, np.ones(3), phase_set(2), np.zeros((4, 3), int))


def test_ring_bound_prunes_a_codebook_builds_kernel_work(monkeypatch):
    # the targets the two-phasor kernel receives in one 4-chain build.  The
    # continuous-phase bound, 0 for every target inside the pair's reach,
    # sent it 221,448.  A change that loses some of the ring bound's
    # pruning fails here; the exhaustive-equality property tests catch one
    # that prunes a candidate that must be solved.
    solved = []
    solve = beamkit.practical._two_rf_solve
    monkeypatch.setattr(beamkit.practical, "_two_rf_solve",
                        lambda gamma, *a: solved.append(gamma.size) or solve(gamma, *a))
    build_codebook(16, k=64, r_max=200, seed=3, hw={"n_rf": 4, "b": 6, "t_max": 10})
    assert sum(solved) == 114_032

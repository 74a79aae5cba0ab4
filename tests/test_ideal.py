import itertools
import re

import numpy as np
import pytest

import beamkit.ideal
from beamkit import (
    TargetPattern,
    ls_icd,
    main_lobe_mse,
    make_target,
    ps_icd,
    steering_matrix,
)
from beamkit.arrays import beam_gain
from beamkit.ideal import PhaseOptimizer, SynthesisError


def lifted_quadratic(gram, gains):
    """Real 2K-dimensional lifting (R, t) of the quadratic g^H (A^H A) g.

    R stacks Re/Im blocks of the Gram matrix, t stacks Re/Im parts of the
    gains; t^T R t equals the complex quadratic form.
    """
    re, im = gram.real, gram.imag
    r = np.block([[re, -im], [im, re]])
    t = np.concatenate([gains.real, gains.imag])
    return r, t


def objective(opt):
    """g^H (A^H A) g, the quantity the phase updates maximize (real)."""
    g = opt.gains
    return float(np.real(g.conj() @ opt.gram @ g))


def _optimizer(n, k, target, seed=0):
    sm = steering_matrix(n, k)
    mags = target(sm.grid)
    rng = np.random.default_rng(seed)
    return sm, PhaseOptimizer(sm.gram(), mags, rng.uniform(-np.pi, np.pi, k))


def test_objective_matches_lifted_form():
    target = make_target("rect", (-1.0, 0.0))
    _, opt = _optimizer(4, 8, target)
    r, t = lifted_quadratic(opt.gram, opt.gains)
    assert objective(opt) == pytest.approx(t @ r @ t, rel=1e-12)


def test_single_update_is_coordinate_optimal():
    # brute-force scan over one phase confirms the closed form
    target = make_target("rect", (-1.0, 0.0))
    _, opt = _optimizer(4, 8, target, seed=5)
    k = 2
    opt.update(k)
    best = objective(opt)
    for phi in np.linspace(-np.pi, np.pi, 721):
        phases = opt.phases.copy()
        phases[k] = phi
        trial = PhaseOptimizer(opt.gram, opt.magnitudes, phases)
        assert objective(trial) <= best + 1e-9


def test_updates_never_decrease_objective():
    target = make_target("rect", (-1.0, 0.0))
    _, opt = _optimizer(8, 16, target, seed=1)
    prev = objective(opt)
    for i in range(200):
        opt.update(i % 16)
        cur = objective(opt)
        assert cur >= prev - 1e-12 * max(1.0, abs(prev))
        prev = cur


def test_zero_magnitude_phase_is_kept():
    target = make_target("rect", (-1.0, 0.0))
    _, opt = _optimizer(4, 8, target, seed=2)
    k = 7  # outside coverage, magnitude 0
    assert opt.magnitudes[k] == 0.0
    before = opt.phases[k]
    assert opt.update(k) == before


def test_small_instance_matches_exhaustive():
    # N=2, K=4: two nonzero gains; scan both phases on a 64-point grid
    target = make_target("rect", (-1.0, 0.0))
    sm, opt = _optimizer(2, 4, target, seed=3)
    for i in range(200):
        opt.update(i % 4)
    grid = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    mags = opt.magnitudes
    best = -np.inf
    for p0, p1 in itertools.product(grid, grid):
        g = mags * np.exp(1j * np.array([p0, p1, 0.0, 0.0]))
        best = max(best, np.real(g.conj() @ sm.gram() @ g))
    assert abs(objective(opt) - best) < 1e-3


def test_ps_icd_full_coverage_is_nearly_flat():
    target = make_target("rect", (-1.0, 1.0))
    for n in (8, 16, 32):
        v = ps_icd(target, n, 128, 2000, seed=0)
        grid = np.linspace(-1.0, 1.0, 2048)
        mag = np.abs(beam_gain(v, grid))
        frac = np.mean((mag > 0.75) & (mag < 1.25))
        assert frac >= 0.95


def test_ps_icd_square_grid_keeps_initial_phases():
    # K = N: A^H A = K I, so every cross term is roundoff and no update acts;
    # at N = 128 that roundoff is several times 1e-12 in absolute terms
    n = 128
    target = make_target("rect", (-1.0, 0.0))
    sm = steering_matrix(n, n)
    for seed in (0, 1, 2):
        phases = np.random.default_rng(seed).uniform(-np.pi, np.pi, n)
        g = target(sm.grid) * np.exp(1j * phases)
        expect = sm.matrix @ g / n
        expect = expect / np.linalg.norm(expect)
        np.testing.assert_array_equal(ps_icd(target, n, n, 2000, seed), expect)


def test_ps_icd_deterministic_per_seed():
    target = make_target("rect", (-1.0, 0.0))
    v1 = ps_icd(target, 16, 128, 500, seed=42)
    v2 = ps_icd(target, 16, 128, 500, seed=42)
    v3 = ps_icd(target, 16, 128, 500, seed=43)
    np.testing.assert_array_equal(v1, v2)
    assert not np.allclose(v1, v3)


def test_ps_icd_unit_norm():
    target = make_target("rect", (-1.0, 0.0))
    v = ps_icd(target, 16, 128, 500, seed=0)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_ls_icd_closed_form():
    # LS baseline: v = normalize(A g / K) with real target magnitudes
    target = make_target("rect", (-1.0, 0.0))
    sm = steering_matrix(8, 32)
    g = target(sm.grid)
    expect = sm.matrix @ g / 32
    expect = expect / np.linalg.norm(expect)
    np.testing.assert_allclose(ls_icd(target, 8, 32), expect, atol=1e-12)


def test_ls_icd_ripples_around_level():
    target = make_target("rect", (-1.0, 0.0))
    v = ls_icd(target, 32, 128)
    mse = main_lobe_mse(v, target)
    assert 0.005 < mse < 0.05


def test_vanishing_target_raises():
    # coverage so narrow that no grid node falls inside it
    target = make_target("rect", (-0.004, -0.002))
    with pytest.raises(SynthesisError):
        ls_icd(target, 16, 128)
    with pytest.raises(SynthesisError):
        ps_icd(target, 16, 128, 100, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
def test_non_finite_or_negative_target_raises(bad):
    # a magnitude profile that is NaN, infinite or negative on part of the
    # grid would give a NaN or meaningless codeword
    target = TargetPattern((-1.0, 0.0),
                           lambda om: np.where(om < -0.5, bad, 1.0))
    for design in (lambda: ls_icd(target, 8, 16),
                   lambda: ps_icd(target, 8, 16, 50, seed=0)):
        with pytest.raises(SynthesisError,
                           match=f"finite and nonnegative, got {bad} at"):
            design()


def test_ps_icd_validates_target():
    with pytest.raises(TypeError):
        ps_icd("not a target", 16, 128, 100, seed=0)


@pytest.mark.parametrize("output", [np.ones(5), np.ones((1, 32)), np.float64(1.0)])
def test_a_target_off_the_grid_shape_is_named(output):
    # numpy's reshape or matmul error named neither the target nor the shapes
    def bad(grid):
        return output

    shape = re.escape(str(np.shape(output)))
    with pytest.raises(ValueError, match=rf"^target must give one magnitude per grid "
                                         rf"direction, shape \(32,\), got shape {shape}$"):
        ps_icd(bad, 8, 32, 10, 0)
    with pytest.raises(ValueError, match=rf"^target must give .* got shape {shape}$"):
        ls_icd(bad, 8, 32)
    good = make_target("rect", (-1.0, 0.0))
    with pytest.raises(ValueError, match=rf"^target 1 must give .* got shape {shape}$"):
        ps_icd([good, bad, good], 8, 32, 10, [1, 2, 3])


def test_stacked_ps_icd_names_its_first_failing_entry(monkeypatch):
    good = make_target("rect", (-1.0, 0.0))
    narrow = make_target("rect", (-0.004, -0.002))  # no grid direction inside
    nan = TargetPattern((-1.0, 0.0), lambda om: np.where(om < -0.5, np.nan, 1.0))
    with pytest.raises(SynthesisError, match="^target 2 magnitudes vanish") as err:
        ps_icd([good, good, narrow, good, nan], 16, 128, 100, seed=[1, 2, 3, 4, 5])
    assert err.value.entry == 2
    with pytest.raises(SynthesisError, match="^target 1 magnitudes must be finite") as err:
        ps_icd([good, nan, narrow], 16, 128, 100, seed=[1, 2, 3])
    assert err.value.entry == 1
    # the entries before a failing target are still designed, and one of
    # them that fails is named first
    real = beamkit.ideal._assemble

    def assemble(matrix, gains, k, entry=None):
        if entry == 0:
            raise SynthesisError("designed vector 0 collapsed to zero", 0)
        return real(matrix, gains, k, entry)

    monkeypatch.setattr(beamkit.ideal, "_assemble", assemble)
    with pytest.raises(SynthesisError, match="^designed vector 0 collapsed") as err:
        ps_icd([good, narrow], 16, 128, 100, seed=[1, 2])
    assert err.value.entry == 0


def test_stacked_ps_icd_checks_its_targets_and_seeds():
    good = make_target("rect", (-1.0, 0.0))
    assert ps_icd([], 8, 16, 10, seed=[]).shape == (0, 8)
    for seed in (0, [1], [1, 2, 3], [[1, 2]]):
        with pytest.raises(ValueError, match="seed must be 2 counts, one per target"):
            ps_icd([good, good], 8, 16, 10, seed=seed)
    with pytest.raises(ValueError, match="seed must be >= 0 and an integer, got -1"):
        ps_icd([good, good], 8, 16, 10, seed=[1, -1])
    with pytest.raises(TypeError, match="target must be a magnitude profile"):
        ps_icd([good, "not a target"], 8, 16, 10, seed=[1, 2])


def test_ps_icd_rejects_negative_update_count():
    target = make_target("rect", (-1.0, 0.0))
    with pytest.raises(ValueError, match="r_max must be >= 0 and an integer, got -3"):
        ps_icd(target, 8, 16, -3, seed=0)
    ps_icd(target, 8, 16, 0, seed=0)  # zero updates: the seeded start


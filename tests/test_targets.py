import numpy as np
import pytest

from beamkit import TargetPattern, make_target


def _energy(target, points=200001):
    grid = np.linspace(-1.0, 1.0, points)
    return np.trapezoid(target(grid) ** 2, grid)


def test_rect_level_and_energy():
    t = make_target("rect", (-1.0, 0.0))
    assert t(-0.5) == pytest.approx(np.sqrt(2.0))
    assert t(0.5) == 0.0
    assert _energy(t) == pytest.approx(2.0, abs=1e-3)
    # narrower coverage raises the flat level: C_v = sqrt(2/B)
    t2 = make_target("rect", (0.0, 0.5))
    assert t2(0.25) == pytest.approx(2.0)


def test_rect_zero_outside_and_edges_inside():
    t = make_target("rect", (-0.5, 0.5))
    assert t(-0.5) == pytest.approx(np.sqrt(2.0))
    assert t(0.5) == pytest.approx(np.sqrt(2.0))
    assert t(-0.50001) == 0.0
    np.testing.assert_allclose(t(np.array([-0.9, 0.9])), 0.0)


def test_triangular_peak_and_energy():
    t = make_target("triangular", (-1.0, 0.0))
    assert t(-0.5) == pytest.approx(np.sqrt(6.0))
    assert t(-1.0) == pytest.approx(0.0, abs=1e-12)
    assert t(0.0) == pytest.approx(0.0, abs=1e-12)
    assert _energy(t) == pytest.approx(2.0, abs=1e-3)


def test_step_energy_and_height_ratio():
    t = make_target("step", (-1.0, 0.0), heights=(1.0, 2.0), split=0.5)
    assert _energy(t) == pytest.approx(2.0, abs=1e-3)
    assert t(-0.3) / t(-0.7) == pytest.approx(2.0, rel=1e-12)


def test_step_validation():
    with pytest.raises(ValueError):
        make_target("step", (-1.0, 0.0), heights=(-1.0, 2.0))
    with pytest.raises(ValueError):
        make_target("step", (-1.0, 0.0), heights=(1.0, 2.0), split=1.5)
    with pytest.raises(ValueError):
        make_target("step", (-1.0, 0.0), heights=(0.0, 0.0))
    for heights in ((np.nan, 1.0), (1.0, np.inf), (-np.inf, 1.0)):
        with pytest.raises(ValueError, match="heights must be finite and nonnegative"):
            make_target("step", (-1.0, 0.0), heights=heights)
    # a misspelt keyword is an error, not the default pattern
    with pytest.raises(TypeError):
        make_target("step", (-1.0, 0.0), hieghts=(1.0, 3.0))


def test_custom_interpolation():
    # any sampled profile is a TargetPattern over np.interp of its samples
    def interp(om):
        return np.interp(om, [-1.0, -0.5, 0.0], [0.0, 2.0, 0.0])

    t = TargetPattern((-1.0, 0.0), interp)
    assert t(-0.75) == pytest.approx(1.0)
    assert t(0.5) == 0.0
    np.testing.assert_array_equal(t(np.array([-0.75, -0.5, 0.5])), [1.0, 2.0, 0.0])
    # make_target builds only the named shapes
    with pytest.raises(ValueError, match="unknown target kind 'custom'"):
        make_target("custom", (-1, 0))
    with pytest.raises(TypeError):
        make_target("rect", (-1, 0), omegas=[-1, 0], values=[1.0, 1.0])


def test_coverage_validation():
    with pytest.raises(ValueError):
        make_target("rect", (0.5, 0.5))
    with pytest.raises(ValueError):
        make_target("rect", (-2.0, 0.0))
    with pytest.raises(ValueError):
        make_target("gaussian", (-1.0, 0.0))


def test_scalar_and_array_call():
    t = make_target("rect", (-1.0, 0.0))
    grid = np.linspace(-1, 1, 9)
    out = t(grid)
    assert out.shape == (9,)
    # a scalar direction gives a 0-d array, as a numpy ufunc does
    for i, omega in enumerate(grid):
        value = t(omega)
        assert isinstance(value, np.ndarray) and value.shape == ()
        assert value == out[i]
    assert t(grid.reshape(3, 3)).shape == (3, 3)

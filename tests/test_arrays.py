import numpy as np
import pytest

from beamkit import (
    TargetPattern,
    beam_gain,
    main_lobe_mse,
    make_target,
    steering_matrix,
    steering_vector,
)


def test_steering_vector_entries():
    n, omega = 8, 0.3
    a = steering_vector(n, omega)
    expect = np.exp(1j * np.pi * np.arange(n) * omega) / np.sqrt(n)
    np.testing.assert_allclose(a, expect, atol=1e-15)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)


def test_steering_vector_validates():
    with pytest.raises(ValueError):
        steering_vector(0, 0.0)


def test_beam_gain_matches_direct_sum():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    omega = 0.41
    direct = sum(v[i] * np.exp(-1j * np.pi * i * omega) for i in range(6))
    g = beam_gain(v, omega)
    assert g == pytest.approx(direct, abs=1e-12)
    assert isinstance(g, np.ndarray) and g.shape == () and g.dtype == complex
    # array input preserves shape
    grid = np.array([[0.1, 0.2], [0.3, 0.4]])
    assert beam_gain(v, grid).shape == (2, 2)


def test_beam_gain_of_steering_vector_peaks_at_sqrt_n():
    n = 16
    a = steering_vector(n, -0.25)
    assert abs(beam_gain(a, -0.25)) == pytest.approx(np.sqrt(n), abs=1e-12)


def test_pattern_energy_parseval():
    # integral of |G|^2 over [-1, 1] equals 2 * ||v||^2
    rng = np.random.default_rng(0)
    v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    v /= np.linalg.norm(v)
    grid = np.linspace(-1.0, 1.0, 20001)
    energy = np.trapezoid(np.abs(beam_gain(v, grid)) ** 2, grid)
    assert energy == pytest.approx(2.0, abs=1e-6)


def test_main_lobe_mse_against_brute_force():
    # independent recomputation with an explicit interior grid
    rng = np.random.default_rng(7)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    v /= np.linalg.norm(v)
    target = make_target("rect", (-1.0, 0.0))
    grid = np.linspace(-1.0, 0.0, 1002)[1:-1]
    expect = np.mean((np.abs(beam_gain(v, grid)) - np.sqrt(2.0)) ** 2)
    assert main_lobe_mse(v, target) == pytest.approx(expect, rel=1e-12)


def test_main_lobe_mse_excludes_endpoints():
    # a target of 1 that spikes to 1000 only at the two coverage edges: one
    # edge sample would add at least (1000 - sqrt(8))^2 / 1002 > 900
    def spiked(om):
        return np.interp(om, [-1.0, -1.0 + 1e-4, -1e-4, 0.0],
                         [1000.0, 1.0, 1.0, 1000.0])

    target = TargetPattern((-1.0, 0.0), spiked)
    v = steering_vector(8, -0.5)
    grid = np.linspace(-1.0, 0.0, 1002)[1:-1]
    expect = np.mean((np.abs(beam_gain(v, grid)) - 1.0) ** 2)
    mse = main_lobe_mse(v, target)
    assert mse == pytest.approx(expect, rel=1e-12)
    assert mse < 10.0


def test_steering_matrix_grid_and_gram():
    sm = steering_matrix(16, 128)
    assert sm.grid[0] == pytest.approx(-1.0 + 1.0 / 128)
    assert sm.grid[-1] == pytest.approx(1.0 - 1.0 / 128)
    # A A^H = K I (rows are orthogonal complex exponentials)
    aaH = sm.matrix @ sm.matrix.conj().T
    np.testing.assert_allclose(aaH, 128 * np.eye(16), atol=1e-10)


def test_gram_is_one_shared_read_only_array_per_size():
    sm = steering_matrix(8, 32)
    gram = sm.gram()
    assert gram.tobytes() == (sm.matrix.conj().T @ sm.matrix).tobytes()
    assert steering_matrix(8, 32).gram() is gram
    assert steering_matrix(8, 64).gram() is not gram
    with pytest.raises(ValueError):
        gram[0, 0] = 0.0


def test_grid_and_matrix_are_shared_read_only_arrays_per_size():
    sm = steering_matrix(8, 32)
    again = steering_matrix(8, 32)
    assert again.grid is sm.grid and again.matrix is sm.matrix
    assert steering_matrix(8, 64).matrix is not sm.matrix
    with pytest.raises(ValueError):
        sm.grid[0] = 0.0
    with pytest.raises(ValueError):
        sm.matrix[0, 0] = 0.0
    with pytest.raises(ValueError):
        sm.matrix *= 2.0


def test_steering_matrix_requires_k_ge_n():
    with pytest.raises(ValueError):
        steering_matrix(16, 8)


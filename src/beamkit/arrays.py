"""Array-response primitives for uniform linear arrays.

All angles are in the cosine domain Omega = cos(physical angle), so the
usable range is [-1, 1].  Codewords are plain complex numpy vectors; a
codeword proper is unit-norm, while intermediate unnormalized vectors are
accepted wherever documented.
"""

import functools
import math

import numpy as np

__all__ = [
    "steering_vector",
    "beam_gain",
    "main_lobe_mse",
    "steering_matrix",
]


def _count(name, value, lo, hi=None):
    """The count or size named name, as a Python int: a Python or numpy
    integer, not a bool, in [lo, hi] (hi None: no upper bound).  Anything
    else raises ValueError naming the parameter, its range and the value."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and lo <= value and (hi is None or value <= hi)):
        return int(value)
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise ValueError(f"{name} must be {bound} and an integer, got {value!r}")


def _finite(name, a, dtype, labels=None):
    """a as an array of dtype, under the finiteness rule of public inputs:
    ValueError naming the first non-finite entry (by flat index, or label)."""
    a = np.asarray(a, dtype=dtype)
    if not np.isfinite(a).all():
        i = np.flatnonzero(~np.isfinite(a))[0]
        raise ValueError(f"{name} entry {i if labels is None else labels[i]} is not finite: "
                         f"{a.flat[i]}")
    return a


def steering_vector(n, omega):
    """Unit-norm steering vector of an n-element half-wavelength ULA.

    Entry i (0-based) is (1/sqrt(n)) * exp(j*pi*i*omega).  omega is a real
    scalar; a NaN or infinite one raises ValueError naming it.
    """
    n = _count("n", n, 1)
    if not math.isfinite(omega):
        _finite("omega", omega, float)
    return np.exp(1j * np.pi * np.arange(n) * omega) / np.sqrt(n)


def beam_gain(v, omega):
    """Complex beam gain of vector v in direction(s) omega.

    Equals sqrt(n) * a(n, omega)^H v = sum_i v_i exp(-j*pi*i*omega).
    Returns a complex array of omega's shape (0-d for a scalar omega).  A
    non-finite entry of v or omega raises ValueError naming it.
    """
    return _beam_gain(_finite("v", v, complex), _finite("omega", omega, float))


def _beam_gain(v, om):
    """beam_gain of a finite complex v and finite float array om, unchecked."""
    g = np.exp(-1j * np.pi * np.outer(om, np.arange(v.size))) @ v
    return g.reshape(om.shape)


def main_lobe_mse(v, target):
    """Mean squared error of |G(v, .)| against the target inside its coverage.

    Sampled on 1000 uniform points strictly interior to the coverage
    interval.  For a rect target this is the mean of (|G| - C_v)^2, the main
    lobe variation metric.  A non-finite entry of v raises ValueError
    naming it.
    """
    v = _finite("v", v, complex)
    lo, hi = target.coverage
    grid = np.linspace(lo, hi, 1002)[1:-1]
    mag = np.abs(_beam_gain(v, grid))
    return float(np.mean((mag - target(grid)) ** 2))


class SteeringMatrix:
    """K steering vectors, scaled by sqrt(n), on a uniform direction grid;
    built by steering_matrix.

    Column k (1-based) is sqrt(n) * a(n, omega_k) with
    omega_k = -1 + (2k - 1)/K, so the Gram identity A A^H = K I holds.
    grid and matrix are read-only arrays, one of each per (n, k), shared by
    every SteeringMatrix of that size.
    """

    def __init__(self, n, k):
        self.n = n = _count("n", n, 1)
        self.k = k = _count("k", k, n)
        self.grid, self.matrix = _grid_and_matrix(n, k)

    def gram(self):
        """A^H A, the K x K Gram matrix used by the phase optimizer.

        One read-only array per (n, k), shared by every call: a fresh
        K = 128 Gram is 262 KB, allocated and page-faulted anew by each
        ps_icd otherwise.
        """
        return _gram(self.n, self.k)


@functools.lru_cache(maxsize=4)  # keys are counts SteeringMatrix has checked
def _grid_and_matrix(n, k):
    """The grid and steering matrix of (n, k), built once and read-only.
    Building them took about 95 us at N = 16, K = 128 on a 2-core x86-64
    machine, and a fresh 64 KB matrix (N = 32) is page-faulted anew."""
    grid = -1.0 + (2.0 * np.arange(1, k + 1) - 1.0) / k
    matrix = np.exp(1j * np.pi * np.outer(np.arange(n), grid))
    grid.setflags(write=False)
    matrix.setflags(write=False)
    return grid, matrix


@functools.lru_cache(maxsize=4)  # keys are counts SteeringMatrix has checked
def _gram(n, k):
    matrix = _grid_and_matrix(n, k)[1]
    gram = matrix.conj().T @ matrix
    gram.setflags(write=False)
    return gram


def steering_matrix(n, k):
    """Build the sqrt(n)-scaled steering matrix with K grid columns."""
    return SteeringMatrix(n, k)


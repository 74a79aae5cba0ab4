"""Ideal (hardware-free) codeword synthesis.

Two methods are provided.  The least-squares baseline projects the real
target magnitudes onto the steering-matrix columns.  The phase-shifted
design additionally optimizes an auxiliary phase per grid direction by
coordinate ascent; each single-phase update has a closed form, so a sweep
is cheap and the quadratic objective never decreases.
"""

import cmath
import functools

import numpy as np

from .arrays import _count, _gram, steering_matrix

__all__ = [
    "SynthesisError",
    "ps_icd",
    "ls_icd",
]

# A cross term at most this fraction of its Cauchy-Schwarz bound |gram[k]|.|g|
# is roundoff: at K = N the off-diagonal Gram entries vanish and what remains
# is about 1e-15 of the bound, while genuine cross terms on grids with K > N
# exceed 1e-5 of it.  Its direction is then undefined, and the previous phase
# is retained (any phase is optimal there).
_DEGENERATE_RTOL = 1e-10


class SynthesisError(RuntimeError):
    """Raised when a design collapses to a zero vector, or is asked to
    factor a zero or non-finite codeword.  entry is the failing codeword's
    index in a stack given to fs_altmin, else None."""

    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry


class PhaseOptimizer:
    """Coordinate-ascent state of ps_icd's per-direction phase optimization.

    Maximizes g^H (A^H A) g over the phases of g, with |g_k| fixed to the
    target magnitude at grid direction k.  Only the K x K Gram matrix
    A^H A is stored.  phases and g itself, gains, are plain arrays that
    update keeps in step one entry at a time.
    """

    def __init__(self, gram, magnitudes, phases):
        gram = np.asarray(gram, dtype=complex)
        self._start(gram, _row_constants(gram), magnitudes, phases)

    @classmethod
    def _shared(cls, gram, n, k, magnitudes, phases):
        """The optimizer on gram, the shared Gram of steering_matrix(n, k),
        with the constants of its rows built once per (n, k)."""
        opt = cls.__new__(cls)
        opt._start(gram, _shared_row_constants(n, k), magnitudes, phases)
        return opt

    def _start(self, gram, row_constants, magnitudes, phases):
        self.gram = gram
        self.magnitudes = np.asarray(magnitudes, dtype=float)
        self.phases = np.array(phases, dtype=float)
        self.gains = self.magnitudes * np.exp(1j * self.phases)
        norms, self._rows, self._diagonal = row_constants
        # |g| is fixed by the magnitudes, so each threshold is a constant
        self._degenerate = (
            _DEGENERATE_RTOL * norms * np.linalg.norm(self.magnitudes)
        ).tolist()
        # the magnitudes are Python floats, so their product with the Python
        # complex cmath.exp returns is a fast Python one
        self._magnitudes = self.magnitudes.tolist()

    def update(self, k):
        """Closed-form update of phase k; returns the (possibly kept) phase.

        The optimum aligns g_k with the cross term; zero-magnitude entries
        and degenerate cross terms, at most roundoff relative to
        |gram[k]|.|g|, keep their previous phase.
        """
        magnitude = self._magnitudes[k]
        if magnitude == 0.0:
            return self.phases[k]
        # sum_{m != k} [A^H A]_{k,m} g_m, the linear coefficient of g_k
        g = self.gains
        c = complex(self._rows[k].dot(g) - self._diagonal[k] * g[k])
        if abs(c) <= self._degenerate[k]:
            return self.phases[k]
        # the phase of c: the ufunc np.angle runs, without its wrapper
        phase = np.arctan2(c.imag, c.real)
        self.phases[k] = phase
        g[k] = magnitude * cmath.exp(1j * phase)
        return phase


def _row_constants(gram):
    """The inputs of update that depend on the Gram alone: its row norms,
    and its rows and diagonal entries in tuples, which are faster to index."""
    return np.linalg.norm(gram, axis=1), tuple(gram), tuple(gram.diagonal())


@functools.lru_cache(maxsize=4)  # keys are counts SteeringMatrix has checked
def _shared_row_constants(n, k):
    """_row_constants of the shared, read-only Gram of (n, k), built once:
    about 75 us at K = 128 on a 2-core x86-64 machine."""
    norms, rows, diagonal = _row_constants(_gram(n, k))
    norms.setflags(write=False)
    return norms, rows, diagonal


def _target_gains(target, grid):
    mags = np.asarray(target(grid), dtype=float)
    bad = np.flatnonzero(~(np.isfinite(mags) & (mags >= 0)))[:1]
    if bad.size:
        raise SynthesisError("target magnitudes must be finite and nonnegative, "
                             f"got {mags[bad][0]} at direction {grid[bad][0]}")
    if not np.any(mags > 0):
        raise SynthesisError("target magnitudes vanish on the whole grid")
    return mags


def _assemble(matrix, gains, k):
    vhat = matrix @ gains / k
    nrm = np.linalg.norm(vhat)
    if nrm < 1e-12:
        raise SynthesisError("designed vector collapsed to zero")
    return vhat / nrm


def ps_icd(target, n, k, r_max, seed):
    """Phase-shifted ideal codeword design.

    Runs r_max cyclic closed-form phase updates, update i on direction
    i mod k, starting from random phases, then assembles the unit-norm
    codeword from the optimized gains.  A direction of zero target
    magnitude keeps its phase, so only the others are updated.
    Deterministic for a fixed seed, an integer >= 0.

    target: TargetPattern (or any callable magnitude profile on [-1, 1]).
    n: antennas; k: grid size (k >= n); r_max: total update count.

    At k == n the grid is orthogonal (A^H A = K I), so the phases do not
    change the objective: no update acts, and the result is the codeword
    assembled from the seeded initial phases.  Use k > n (e.g. 2n) for a
    phase design that differs from that.
    """
    r_max, seed = _count("r_max", r_max, 0), _count("seed", seed, 0)
    sm = steering_matrix(n, k)
    mags = _target_gains(target, sm.grid)
    rng = np.random.default_rng(seed)
    opt = PhaseOptimizer._shared(sm.gram(), sm.n, sm.k, mags, rng.uniform(-np.pi, np.pi, k))
    live = np.flatnonzero(mags)
    for j in np.concatenate([np.tile(live, r_max // k), live[live < r_max % k]]).tolist():
        opt.update(j)
    return _assemble(sm.matrix, opt.gains, k)


def ls_icd(target, n, k):
    """Least-squares baseline: real target magnitudes, no auxiliary phases."""
    sm = steering_matrix(n, k)
    mags = _target_gains(target, sm.grid)
    return _assemble(sm.matrix, mags.astype(complex), k)

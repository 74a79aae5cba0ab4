"""Ideal (hardware-free) codeword synthesis.

Two methods are provided.  The least-squares baseline projects the real
target magnitudes onto the steering-matrix columns.  The phase-shifted
design additionally optimizes an auxiliary phase per grid direction by
coordinate ascent; each single-phase update has a closed form, so a sweep
is cheap and the quadratic objective never decreases.
"""

import cmath

import numpy as np

from .arrays import _count, steering_matrix

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

# A stacked ps_icd steps its entries together while at least this many still
# have updates left, and finishes the rest one by one in PhaseOptimizer.update.
# A step costs about as much as this many updates: stepping E entries together
# through 1024 updates each took 1.17 / 0.97 / 0.85 times as long as E loops
# at E = 5 / 6 / 7 (N = 16, K = 128; medians of 12 interleaved rounds on a
# 2-core x86-64 machine, numpy 2.4, one BLAS thread).
_LOCKSTEP_MIN = 6
# Steps whose directions it lists at a time, so that the list stays small.
_LOCKSTEP_CHUNK = 256


class SynthesisError(RuntimeError):
    """Raised when a design collapses to a zero vector, or is asked to
    factor a zero or non-finite codeword.  entry is the failing codeword's
    index in a stack given to ps_icd or fs_altmin, else None."""

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
        magnitudes = np.asarray(magnitudes, dtype=float)
        phases = np.array(phases, dtype=float)
        self._start(gram, _row_constants(gram), magnitudes, phases,
                    magnitudes * np.exp(1j * phases))

    @classmethod
    def _shared(cls, gram, row_constants, magnitudes, phases, gains):
        """The optimizer on gram, whose _row_constants are row_constants,
        built once by the caller.  It updates phases and gains, g for those
        magnitudes and phases, in place."""
        opt = cls.__new__(cls)
        opt._start(gram, row_constants, magnitudes, phases, gains)
        return opt

    def _start(self, gram, row_constants, magnitudes, phases, gains):
        self.gram = gram
        self.magnitudes, self.phases, self.gains = magnitudes, phases, gains
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


def _named(entry):
    return "" if entry is None else f" {entry}"


def _target_gains(target, grid, entry=None):
    mags = np.asarray(target(grid), dtype=float)
    if mags.shape != grid.shape:
        raise ValueError(f"target{_named(entry)} must give one magnitude per grid "
                         f"direction, shape {grid.shape}, got shape {mags.shape}")
    bad = np.flatnonzero(~(np.isfinite(mags) & (mags >= 0)))[:1]
    if bad.size:
        raise SynthesisError(f"target{_named(entry)} magnitudes must be finite and "
                             f"nonnegative, got {mags[bad][0]} at direction {grid[bad][0]}",
                             entry)
    if not np.any(mags > 0):
        raise SynthesisError(f"target{_named(entry)} magnitudes vanish on the whole grid",
                             entry)
    return mags


def _assemble(matrix, gains, k, entry=None):
    vhat = matrix @ gains / k
    nrm = np.linalg.norm(vhat)
    if nrm < 1e-12:
        raise SynthesisError(f"designed vector{_named(entry)} collapsed to zero", entry)
    return vhat / nrm


def ps_icd(target, n, k, r_max, seed):
    """Phase-shifted ideal codeword design.

    Runs r_max cyclic closed-form phase updates, update i on direction
    i mod k, starting from random phases, then assembles the unit-norm
    codeword from the optimized gains.  A direction of zero target
    magnitude keeps its phase, so only the others are updated.
    Deterministic for a fixed seed, an integer >= 0.

    target: TargetPattern (or any callable magnitude profile on [-1, 1]);
    an output of another shape than the grid's (k,) raises ValueError.
    n: antennas; k: grid size (k >= n); r_max: total update count.

    At k == n the grid is orthogonal (A^H A = K I), so the phases do not
    change the objective: no update acts, and the result is the codeword
    assembled from the seeded initial phases.  Use k > n (e.g. 2n) for a
    phase design that differs from that.

    target may also be a sequence of E targets, with seed a sequence of E
    seeds; an (E, n) array is then returned, row e equal bit for bit to
    ps_icd(target[e], n, k, r_max, seed[e]).  The entries step through their
    own live directions together.  A SynthesisError names the first entry
    that failed, in stack order, and holds its index in entry.
    """
    stacked = not callable(target)
    targets = list(target) if stacked else [target]
    if not all(map(callable, targets)):
        raise TypeError(f"target must be a magnitude profile or a sequence of them, "
                        f"got {target!r}")
    r_max = _count("r_max", r_max, 0)
    if stacked and (np.ndim(seed) != 1 or len(seed) != len(targets)):
        raise ValueError(f"seed must be {len(targets)} counts, one per target, got {seed!r}")
    seeds = [_count("seed", s, 0) for s in (seed if stacked else [seed])]
    entries = range(len(targets)) if stacked else [None]
    sm = steering_matrix(n, k)
    n, k = sm.n, sm.k
    mags, failure = [], None
    for e, t in zip(entries, targets):
        try:
            mags.append(_target_gains(t, sm.grid, e))
        except SynthesisError as exc:
            # the entries before it are still designed: one of them that
            # fails is named first
            failure = exc
            break
    mags = np.array(mags).reshape(len(mags), k)
    phases = np.array([np.random.default_rng(s).uniform(-np.pi, np.pi, k)
                       for s in seeds[:len(mags)]]).reshape(mags.shape)
    gains = mags * np.exp(1j * phases)
    # entry e updates its live directions in cyclic order, lengths[e] times:
    # update i acts on direction i mod k when that direction is live
    lives = [np.flatnonzero(m) for m in mags]
    lengths = [live.size * (r_max // k) + np.count_nonzero(live < r_max % k)
               for live in lives]
    gram = sm.gram()
    row_constants = _row_constants(gram)
    done = _lockstep(gram, row_constants[0], mags, phases, gains, lengths)
    for m, p, g, live, length in zip(mags, phases, gains, lives, lengths):
        if length > done:
            opt = PhaseOptimizer._shared(gram, row_constants, m, p, g)
            for j in np.resize(live, length)[done:].tolist():
                opt.update(j)
    out = [_assemble(sm.matrix, g, k, e) for e, g in zip(entries, gains)]
    if failure is not None:
        raise failure
    return np.array(out).reshape(len(out), n) if stacked else out[0]


def _lockstep(gram, norms, mags, phases, gains, lengths):
    """Take the first t updates of every entry together, where t is the most
    that at least _LOCKSTEP_MIN entries take, and return t.  Entry e of the
    (E, K) arrays mags, phases and gains takes lengths[e] updates, on its live
    directions in cyclic order.  Step t updates each running entry's own t-th
    direction with the arithmetic of PhaseOptimizer.update on gram, whose row
    norms are norms, so phases and gains, updated in place, are bit for bit
    those of its loop."""
    lengths = np.array(lengths, dtype=int)
    if lengths.size < _LOCKSTEP_MIN:
        return 0
    # the longest first, so the entries running at a step are a prefix
    rank = np.argsort(-lengths, kind="stable")
    steps = int(lengths[rank[_LOCKSTEP_MIN - 1]])
    running = np.searchsorted(-lengths[rank], -np.arange(steps), side="left").tolist()
    m = mags[rank]
    e_total, k = m.shape
    live = m > 0
    cycle = np.count_nonzero(live, axis=1)
    directions = np.argsort(~live, axis=1, kind="stable")  # the live ones first
    offsets = np.arange(e_total) * k  # of each entry's row in the flat arrays
    g = gains[rank]
    g3, gf = g[:, :, None], g.reshape(-1)
    pf, mf = phases[rank].reshape(-1), m.reshape(-1)
    # PhaseOptimizer's thresholds, entry by entry
    threshold = (_DEGENERATE_RTOL * norms
                 * np.array([np.linalg.norm(row) for row in m])[:, None]).reshape(-1)
    diagonal = gram.diagonal()
    for t0 in range(0, steps, _LOCKSTEP_CHUNK):
        # the directions of the chunk's steps, one row per step
        table = directions[np.arange(e_total),
                           np.arange(t0, min(t0 + _LOCKSTEP_CHUNK, steps))[:, None] % cycle]
        for r, d, f in zip(running[t0:], table, table + offsets):
            d, f = d[:r], f[:r]
            dot = np.matmul(gram.take(d, axis=0)[:, None], g3[:r]).reshape(r)
            # the diagonal term part by part, rounded as the scalar complex
            # product rounds it (numpy's vector product may fuse the parts)
            dd, gk = diagonal.take(d), gf.take(f)
            c_re = dot.real - (dd.real * gk.real - dd.imag * gk.imag)
            c_im = dot.imag - (dd.real * gk.imag + dd.imag * gk.real)
            phase = np.arctan2(c_im, c_re)
            moved = np.hypot(c_re, c_im) > threshold.take(f)  # abs(c) is hypot
            if np.count_nonzero(moved) < r:
                f, phase = f[moved], phase[moved]
            pf[f] = phase
            gf[f] = mf.take(f) * np.exp(1j * phase)
    phases[rank] = pf.reshape(e_total, k)
    gains[rank] = g
    return steps


def ls_icd(target, n, k):
    """Least-squares baseline: real target magnitudes, no auxiliary phases.
    target is checked as ps_icd checks it."""
    sm = steering_matrix(n, k)
    mags = _target_gains(target, sm.grid)
    return _assemble(sm.matrix, mags.astype(complex), k)

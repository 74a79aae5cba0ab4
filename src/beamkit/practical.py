"""Practical codeword design under quantized-phase hybrid constraints.

A practical codeword realizes an ideal codeword v as F f, where the analog
matrix F has unit-modulus entries with b-bit quantized phases and the
digital vector f has one entry per RF chain.  The alternating scheme
solves least squares for f, then rewrites each antenna row of F: exact
quantization for one chain, a closed-form two-phasor match for two chains,
and a cyclic per-phase search that re-solves two free phasors for three or
more chains.

That search skips the two-phasor solve for every candidate that provably
cannot be accepted: no quantized pair comes closer to a target than the
best continuous-phase pair, whose distance has a closed form, so a
candidate whose distance bound exceeds the row's incumbent residual by more
than rounding could never win, tie or be accepted.  Skipping it changes no
index, residual or step count.  The remaining solves, the two-chain match
and solve_two_rf run one kernel, _two_rf_solve.
"""

import contextlib
import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .arrays import _count
from .ideal import SynthesisError

__all__ = [
    "PhaseSet",
    "phase_set",
    "wrap_phase",
    "quantize_index",
    "HybridCodeword",
    "design_nrf1",
    "solve_two_rf",
    "fs_row",
    "ls_fbb",
    "fs_altmin",
    "deviation",
]

# Phase-shifter resolutions accepted, in bits: 1 to _MAX_BITS.
_MAX_BITS = 16
# Digital-vector fixed-point tolerance for the outer alternation.
_FBB_TOL = 1e-10
# Safety cap on inner search cycles; the primary stop is an unchanged cycle.
_ROW_CAP_PER_PHASE = 64
# Rounding allowance of the fast search's bound test, in units of
# |gamma| + |f1| + |f2|.  A computed residual and a computed bound each err
# by a few ulps of that sum (a residual can read up to about one ulp below
# its bound), so 256 ulps leaves a wide safety factor and still skips
# nearly every candidate an exact test would.  It must be absolute, not a
# fraction of the bound: the bound is exactly 0 for every target inside the
# pair's reach, where a relative margin would be no margin at all.
_BOUND_MARGIN = 256 * np.finfo(float).eps
# The two-phasor kernel's constants: offsets -1, 0, 1 around each rounded
# phase, as positions in phasor tables padded by one entry at each end; the
# (branch, d1, d2) of the 18 candidates in search order; the sign of arccos
# in (th1, th2) of branches a and b; and the arccos arguments 0/0 resolves
# to, per phasor (anti-aligned phasors).
_OFFSETS = np.array([0, 1, 2])[:, None]
_CANDIDATES = np.indices((2, 3, 3)).reshape(3, -1).T
_BRANCH_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None]
_NAN_ARGS = np.array([[1.0], [-1.0]])


@dataclass(frozen=True, eq=False)
class PhaseSet:
    """The 2^b admissible phase-shifter phases, sorted ascending.

    Member m (0-based) is pi * (-1 + (2m + 1) / 2^b); spacing 2*pi/2^b.
    phasors[m] is exp(j * values[m]), computed once per set; both arrays
    are read-only.
    """

    bits: int
    values: np.ndarray = field(repr=False)
    phasors: np.ndarray = field(repr=False)

    @property
    def size(self):
        return 2**self.bits


def phase_set(bits):
    """The b-bit quantized phase set, built once per b."""
    return _phase_set(_count("bits", bits, 1, _MAX_BITS))


@functools.lru_cache(maxsize=16)  # keys are ints phase_set has checked
def _phase_set(bits):
    m = np.arange(2**bits)
    values = np.pi * (-1.0 + (2.0 * m + 1.0) / 2**bits)
    phasors = np.exp(1j * values)
    values.setflags(write=False)
    phasors.setflags(write=False)
    return PhaseSet(bits, values, phasors)


def wrap_phase(theta):
    """Wrap angles into [-pi, pi)."""
    return (np.asarray(theta, dtype=float) + np.pi) % (2.0 * np.pi) - np.pi


def quantize_index(theta, bits):
    """Index of the phase-set member closest (circularly) to theta.

    Equidistant ties resolve to the smaller phase value.  Vectorized.  A
    non-finite theta, or bits outside [1, 16], raises ValueError.
    """
    theta = np.asarray(theta, dtype=float)
    bad = np.flatnonzero(~np.isfinite(theta))
    if bad.size:
        raise ValueError(f"theta entry {bad[0]} is not finite: {theta.flat[bad[0]]}")
    return _quantize_index(theta, _count("bits", bits, 1, _MAX_BITS))


def _quantize_index(theta, bits):
    """quantize_index on inputs already checked."""
    size = 2**bits
    x = (wrap_phase(theta) + np.pi) / (2.0 * np.pi / size)
    idx = np.ceil(x).astype(int) - 1
    return np.minimum(np.maximum(idx, 0), size - 1)


@dataclass(frozen=True, eq=False)
class HybridCodeword:
    """Analog/digital factorization of a codeword; immutable.

    The analog matrix is stored as 0-based indices into the b-bit phase
    set, so the quantization constraint is exact by construction.  Both
    arrays are read-only copies of the ones given, so the realized
    codeword is computed once, at construction.  Bad indices or digital
    entries raise ValueError.
    """

    phase_indices: np.ndarray  # (n, n_rf) ints
    bits: int
    digital: np.ndarray  # (n_rf,) complex
    _realized: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "bits", _count("bits", self.bits, 1, _MAX_BITS))
        for name in ("phase_indices", "digital"):
            a = np.array(getattr(self, name))
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        idx, digital = self.phase_indices, self.digital
        if not (idx.ndim == 2 and idx.size and idx.dtype.kind in "iu"
                and 0 <= idx.min() and idx.max() < 2**self.bits):
            raise ValueError("phase_indices must be a non-empty 2-D integer array "
                             f"with entries in [0, 2^{self.bits})")
        if digital.shape != (self.n_rf,) or not np.isfinite(digital).all():
            raise ValueError(f"digital must be {self.n_rf} finite entries, got {digital}")
        r = self.analog @ digital
        r.setflags(write=False)
        object.__setattr__(self, "_realized", r)

    @property
    def n(self):
        return self.phase_indices.shape[0]

    @property
    def n_rf(self):
        return self.phase_indices.shape[1]

    @property
    def analog(self):
        """The unit-modulus analog matrix exp(j * phase)."""
        return phase_set(self.bits).phasors[self.phase_indices]

    @property
    def realized(self):
        """The codeword this pair realizes, analog @ digital (read-only).

        Every access returns the array computed at construction.  A plain
        property, not a field, so tracing that wraps property getters still
        sees every access.
        """
        return self._realized


def _design_input(v):
    """v as a complex array, rejected unless its norm is finite and nonzero."""
    v = np.asarray(v, dtype=complex)
    nrm = np.linalg.norm(v)
    if not (np.isfinite(nrm) and nrm > 0.0):
        raise SynthesisError(f"codeword to factor has norm {nrm}")
    return v


def design_nrf1(v, pset):
    """Single-RF-chain design: quantize each entry phase independently.

    The digital scalar 1/sqrt(n) makes the realized codeword unit-norm
    exactly, since every analog entry has unit modulus.
    """
    v = _design_input(v)
    idx = _quantize_index(np.angle(v), pset.bits)[:, None]
    digital = np.array([1.0 / np.sqrt(v.size)], dtype=complex)
    return HybridCodeword(idx, pset.bits, digital)


def _two_rf_setup(f1, f2, pset):
    """(|f1|, |f2|, then the constants _two_rf_solve needs of f1, f2, pset)."""
    z1, z2 = abs(f1), abs(f2)
    d = (z1 + z2) * (z1 - z2)
    wrap = np.arange(-1, pset.size + 1) % pset.size  # the padded index table
    return (z1, z2, np.array([[d], [-d]]), np.array([[2.0 * z1], [2.0 * z2]]),
            np.array([[np.angle(f1)], [np.angle(f2)]]),
            (f1 * pset.phasors)[wrap], (f2 * pset.phasors)[wrap], wrap, pset.bits)


def _two_rf_phases(gamma, alpha, setup):
    """Both continuous branches of the two-phasor match, wrapped: th (2, 2, M)
    with th[0] = (th1a, th2a), th[1] = (th1b, th2b).  Infeasible triangles
    (|gamma| outside [|z1-z2|, z1+z2]) clamp the arccos arguments, which
    aligns or anti-aligns both phasors with the target -- the optimum."""
    z1, z2, offset, scale, angles = setup[:5]
    # (alpha^2 +- (z1+z2)(z1-z2)) / (2 z alpha) per phasor.  A zero entry
    # makes its own argument infinite or NaN and the other's at least 1, so
    # the live phasor aligns with the target (the zero one's phase adds
    # nothing); 0/0, alpha == 0 with z1 == z2, gives anti-aligned phasors.
    arg = alpha**2 + offset
    zero = not (z1 and z2 and alpha.all())
    with np.errstate(divide="ignore", invalid="ignore") if zero else \
            contextlib.nullcontext():
        arg /= scale * alpha
    if zero:
        np.copyto(arg, _NAN_ARGS, where=np.isnan(arg))
    np.clip(arg, -1.0, 1.0, out=arg)
    beta = np.arctan2(gamma.imag, gamma.real)  # np.angle without its wrapper
    # x + (-d) rounds exactly as x - d, and adding -a as subtracting a
    return wrap_phase(beta - angles + _BRANCH_SIGNS * np.arccos(arg, out=arg))


def _two_rf_solve(gamma, alpha, setup):
    """solve_two_rf on 1-D gamma, given alpha = |gamma| and the setup.

    Both branches' phases are rounded in one buffer; gamma - f1 e1 is formed
    once per first-phase offset, and each candidate's residual is
    |(gamma - f1 e1) - f2 e2|.  The first minimum over the 18 candidates
    wins: branch a before b, offsets (d1, d2) in row-major order.
    """
    f1e, f2e, wrap, bits = setup[5:]
    r = _quantize_index(_two_rf_phases(gamma, alpha, setup), bits)
    j = r[:, :, None] + _OFFSETS  # (branch, phasor, d, M), padded positions
    residuals = np.abs((gamma - f1e[j[:, 0]])[:, :, None] - f2e[j[:, 1]][:, None])
    residuals = residuals.reshape(18, -1)  # (branch, d1, d2) flattened
    best = residuals.argmin(axis=0)  # first minimum wins ties
    cols = np.arange(gamma.size)
    branch, d1, d2 = _CANDIDATES[best].T
    return (wrap[j[branch, 0, d1, cols]], wrap[j[branch, 1, d2, cols]],
            residuals[best, cols])


def solve_two_rf(gamma, f1, f2, pset):
    """Solve the two-phasor match gamma ~ f1 e^{j th1} + f2 e^{j th2}.

    gamma is a 1-D array of complex targets; f1, f2 are the complex digital
    entries of the two free phasors.  Both continuous branches are rounded
    to the nearest members of pset and the 3x3 index neighborhood of each
    rounded pair is searched, which recovers pairs that rounding the two
    coupled phases apart misses; returns (idx1, idx2, residual) of the best
    of the 18 candidates.  A non-finite target or digital entry raises
    ValueError.
    """
    gamma = np.asarray(gamma, dtype=complex)
    bad = np.flatnonzero(~np.isfinite(gamma))
    if bad.size:
        raise ValueError(f"target entry {bad[0]} is not finite: {gamma.flat[bad[0]]}")
    for name, f in (("f1", f1), ("f2", f2)):
        if not np.isfinite(f):
            raise ValueError(f"digital entry {name} is not finite: {f}")
    return _two_rf_solve(gamma, np.abs(gamma), _two_rf_setup(f1, f2, pset))


def fs_row(target, fbb, pset, init_indices):
    """Cyclic search of R antenna rows, each with at least three RF chains.

    Row r of init_indices (R, n_rf) is fitted to target[r], every row on its
    own.  At step t, phase p = t mod (n_rf - 2) + 2 of each row still
    searching is swept over the whole phase set; for each candidate the
    first two phases are re-solved in closed form against the residual
    target, and the best candidate wins (ties go to the smaller phase value)
    unless it is worse than the row's incumbent.  A row stops after n_rf - 2
    steps in a row leave it unchanged, or at the safety cap.

    A candidate with residual target gamma is solved only if the bound
    lb = max(0, |gamma| - (|f1| + |f2|), ||f1| - |f2|| - |gamma|), the
    distance from gamma to every continuous-phase pair f1 e^{j th1} +
    f2 e^{j th2}, less a rounding margin, is at most the row's incumbent
    residual.  A skipped candidate's residual would exceed the incumbent,
    so it can neither win, nor tie the winner, nor be accepted; every
    candidate that can is still solved.  The result is the one an
    exhaustive sweep gives.  A step's kept candidates are solved in one
    kernel call, which reuses the bound's |gamma| and the constants of
    f1, f2 (moduli, angles, phasor tables) set up once per call of fs_row.

    Returns (indices (R, n_rf), residuals (R,), steps), steps being the
    slowest row's step count.
    """
    fbb = np.asarray(fbb, dtype=complex)
    n_rf = fbb.size
    if n_rf < 3:
        raise ValueError("fs_row requires at least three RF chains")
    target = np.asarray(target, dtype=complex)
    phasors = pset.phasors
    idx = np.array(init_indices, dtype=int)
    # np.hypot rounds like scalar abs(), as the golden ledger does; np.abs
    # on an array may take a vector path that differs in the last bit
    start = target - np.sum(fbb * phasors[idx], axis=1)
    res = np.hypot(start.real, start.imag)
    setup = _two_rf_setup(fbb[0], fbb[1], pset)
    z1, z2 = setup[:2]

    cap = _ROW_CAP_PER_PHASE * (n_rf - 2)
    unchanged = np.zeros(target.size, dtype=int)
    active = np.arange(target.size)  # rows still searching
    t = 0
    while t < cap and active.size:
        p = t % (n_rf - 2) + 2
        rows = idx[active]
        # residual targets for every candidate value of phase p, one row each;
        # phase p's own term is rounded part by part like a scalar product
        # (as in the golden ledger), not fused like a vector product
        e = phasors[rows]
        fp, ep = fbb[p], e[:, p]
        own = np.column_stack([fp.real * ep.real - fp.imag * ep.imag,
                               fp.real * ep.imag + fp.imag * ep.real])
        fixed = np.sum((fbb * e)[:, 2:], axis=1) - own.view(complex)[:, 0]
        resid_targets = (target[active] - fixed)[:, None] - fbb[p] * phasors
        # solve only the candidates whose bound, less the margin, does not
        # exceed the incumbent; the rest keep residual +inf.  The bound's 0
        # term is left out, as res >= 0 keeps such candidates anyway.
        alpha = np.abs(resid_targets)
        bound = np.maximum(alpha - (z1 + z2), abs(z1 - z2) - alpha)
        keep = bound - _BOUND_MARGIN * (alpha + z1 + z2) <= res[active, None]
        i1 = np.zeros(resid_targets.shape, dtype=int)
        i2 = np.zeros(resid_targets.shape, dtype=int)
        errs = np.full(resid_targets.shape, np.inf)
        i1[keep], i2[keep], errs[keep] = _two_rf_solve(
            resid_targets[keep], alpha[keep], setup)
        best = np.argmin(errs, axis=1)
        at = (np.arange(active.size), best)
        new = np.column_stack([i1[at], i2[at], best])
        # keep the incumbent row when no candidate improves on it, so every
        # residual sequence is non-increasing
        accept = errs[at] <= res[active]
        moved = accept & np.any(new != rows[:, [0, 1, p]], axis=1)
        idx[active[accept, None], [0, 1, p]] = new[accept]
        res[active[accept]] = errs[at][accept]
        t += 1
        unchanged[active] = np.where(moved, 0, unchanged[active] + 1)
        active = active[unchanged[active] < n_rf - 2]
    return idx, res, t


def ls_fbb(analog, v):
    """Least-squares digital vector for a fixed analog matrix.

    Solves (F^H F) f = F^H v; a near-singular Gram matrix (duplicated
    analog columns) falls back to the pseudo-inverse with a warning.  An
    analog matrix or v whose norm is not finite raises ValueError.
    """
    analog = np.asarray(analog, dtype=complex)
    v = np.asarray(v, dtype=complex)
    for name, a in (("analog", analog), ("v", v)):
        if not np.isfinite(np.linalg.norm(a)):
            raise ValueError(f"{name} has norm {np.linalg.norm(a)}")
    gram = analog.conj().T @ analog
    if np.linalg.cond(gram) > 1e12:
        warnings.warn(
            "analog matrix is rank deficient (duplicated columns?); "
            "using pseudo-inverse",
            RuntimeWarning,
            stacklevel=2,
        )
        return np.linalg.pinv(analog) @ v
    return np.linalg.solve(gram, analog.conj().T @ v)


def fs_altmin(v, n_rf, b, t_max=50, seed=0, trace=None):
    """Alternating design of the quantized analog matrix and digital vector.

    Starts from a random quantized analog matrix, alternates least squares
    for the digital vector with row-wise analog redesign, and stops after
    t_max outer iterations or when the digital vector reaches a fixed
    point.  The final digital vector is rescaled so the realized codeword
    is unit-norm.  trace, if given, collects the fitting residual after
    every least-squares step (non-increasing).

    With t_max > 0, a single RF chain needs no alternation and dispatches
    to design_nrf1.  With t_max = 0, every n_rf returns the seeded random
    start and its least-squares digital vector, rescaled.
    A zero or non-finite v, or a realized codeword that collapses to zero,
    raises SynthesisError.
    """
    v = _design_input(v)
    n_rf = _count("n_rf", n_rf, 1, v.size)
    t_max, seed = _count("t_max", t_max, 0), _count("seed", seed, 0)
    pset = phase_set(_count("b", b, 1, _MAX_BITS))
    if n_rf == 1 and t_max > 0:
        hybrid = design_nrf1(v, pset)
        if trace is not None:
            trace.append(float(np.linalg.norm(v - hybrid.realized)))
        return hybrid

    rng = np.random.default_rng(seed)
    idx = rng.integers(0, pset.size, size=(v.size, n_rf))

    analog = pset.phasors[idx]
    fbb = ls_fbb(analog, v)
    if trace is not None:
        trace.append(float(np.linalg.norm(v - analog @ fbb)))
    for _ in range(t_max):
        if n_rf == 2:
            # all rows in closed form; a row keeps its phases if they are better
            i1, i2, new_res = _two_rf_solve(
                v, np.abs(v), _two_rf_setup(fbb[0], fbb[1], pset))
            # gathered, not the strided analog[:, 0]: a complex product
            # over a strided array may round differently in the last bit
            old = np.abs(v - fbb[0] * pset.phasors[idx[:, 0]]
                         - fbb[1] * pset.phasors[idx[:, 1]])
            idx = np.where((new_res <= old)[:, None], np.column_stack([i1, i2]), idx)
        else:
            idx, _, _ = fs_row(v, fbb, pset, idx)
        analog = pset.phasors[idx]
        new_fbb = ls_fbb(analog, v)
        if trace is not None:
            trace.append(float(np.linalg.norm(v - analog @ new_fbb)))
        converged = np.linalg.norm(new_fbb - fbb) < _FBB_TOL
        fbb = new_fbb
        if converged:
            break

    # v orthogonal to every analog column leaves nothing to rescale
    nrm = np.linalg.norm(analog @ fbb)
    if not nrm > 0.0:
        raise SynthesisError("realized codeword collapsed to zero")
    return HybridCodeword(idx, pset.bits, fbb / nrm)


def deviation(v, vp):
    """l2 deviation between an ideal codeword and a realized one."""
    v = np.asarray(v, dtype=complex)
    vp = np.asarray(vp, dtype=complex)
    if v.shape != vp.shape:
        raise ValueError(f"length mismatch: {v.shape} vs {vp.shape}")
    return float(np.linalg.norm(v - vp))

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
index, residual or step count.
"""

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

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
# Index offsets (d1, d2) searched around each rounded two-phasor branch.
_NEIGHBORHOOD = np.array(
    [(d1, d2) for d1 in (-1, 0, 1) for d2 in (-1, 0, 1)]
)


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


@functools.lru_cache(maxsize=16)
def phase_set(bits):
    """The b-bit quantized phase set, built once per b."""
    bits = int(bits)
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in [1, 16], got {bits}")
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

    Equidistant ties resolve to the smaller phase value.  Vectorized.
    """
    size = 2**bits
    x = (wrap_phase(theta) + np.pi) / (2.0 * np.pi / size)
    idx = np.ceil(x).astype(int) - 1
    return np.clip(idx, 0, size - 1)


@dataclass(frozen=True, eq=False)
class HybridCodeword:
    """Analog/digital factorization of a codeword; immutable.

    The analog matrix is stored as 0-based indices into the b-bit phase
    set, so the quantization constraint is exact by construction.  Both
    arrays are read-only copies of the ones given, so the realized
    codeword is computed once, at construction.
    """

    phase_indices: np.ndarray  # (n, n_rf) ints
    bits: int
    digital: np.ndarray  # (n_rf,) complex
    _realized: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("phase_indices", "digital"):
            a = np.array(getattr(self, name))
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        r = self.analog @ self.digital
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
    idx = quantize_index(np.angle(v), pset.bits)[:, None]
    digital = np.array([1.0 / np.sqrt(v.size)], dtype=complex)
    return HybridCodeword(idx, pset.bits, digital)


def _two_rf_branches(gamma, f1, f2):
    """Continuous-phase branch solutions of the two-phasor match.

    Returns (th1a, th2a, th1b, th2b) for target array gamma and complex
    digital entries f1, f2.  Infeasible triangles (target magnitude outside
    [|z1-z2|, z1+z2]) clamp the arccos arguments, which aligns or
    anti-aligns both phasors with the target -- the continuous optimum.
    """
    gamma = np.asarray(gamma, dtype=complex)
    alpha = np.abs(gamma)
    beta = np.angle(gamma)
    z1, p1 = abs(f1), np.angle(f1)
    z2, p2 = abs(f2), np.angle(f2)
    # a zero entry makes its own argument infinite or NaN and the other's
    # at least 1, so the live phasor aligns with the target; the phase of
    # the zero-weight phasor is arbitrary and adds nothing
    with np.errstate(divide="ignore", invalid="ignore"):
        arg1 = (alpha**2 + (z1 + z2) * (z1 - z2)) / (2.0 * z1 * alpha)
        arg2 = (alpha**2 - (z1 + z2) * (z1 - z2)) / (2.0 * z2 * alpha)
    # alpha == 0 with z1 == z2 yields 0/0; resolve it to anti-aligned phasors
    arg1 = np.nan_to_num(arg1, nan=1.0, posinf=1.0, neginf=-1.0)
    arg2 = np.nan_to_num(arg2, nan=-1.0, posinf=1.0, neginf=-1.0)
    a1 = np.arccos(np.clip(arg1, -1.0, 1.0))
    a2 = np.arccos(np.clip(arg2, -1.0, 1.0))
    th1a = wrap_phase(beta - p1 + a1)
    th2a = wrap_phase(beta - p2 - a2)
    th1b = wrap_phase(beta - p1 - a1)
    th2b = wrap_phase(beta - p2 + a2)
    return th1a, th2a, th1b, th2b


def solve_two_rf(gamma, f1, f2, pset):
    """Solve the two-phasor match gamma ~ f1 e^{j th1} + f2 e^{j th2}.

    gamma is an array of complex targets; f1, f2 are the complex digital
    entries of the two free phasors.

    Both continuous branches are rounded to the nearest members of pset
    and the 3x3 index neighborhood around each rounded pair is searched,
    which recovers pairs that nearest-member rounding of the two coupled
    phases misses; returns (idx1, idx2, residual) of the best of the 18
    candidates.
    """
    th1a, th2a, th1b, th2b = _two_rf_branches(gamma, f1, f2)
    gamma = np.asarray(gamma, dtype=complex)
    # candidates branch-major (a before b), offsets in _NEIGHBORHOOD order
    r1 = quantize_index(np.stack([th1a, th1b]), pset.bits)[:, None]
    r2 = quantize_index(np.stack([th2a, th2b]), pset.bits)[:, None]
    j1 = ((r1 + _NEIGHBORHOOD[:, 0, None]) % pset.size).reshape(18, -1)
    j2 = ((r2 + _NEIGHBORHOOD[:, 1, None]) % pset.size).reshape(18, -1)
    residuals = np.abs(
        gamma - (f1 * pset.phasors)[j1] - (f2 * pset.phasors)[j2]
    )
    best = np.argmin(residuals, axis=0)  # first minimum wins ties
    cols = np.arange(gamma.size)
    return j1[best, cols], j2[best, cols], residuals[best, cols]


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
    exhaustive sweep gives.

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
    z1, z2 = abs(fbb[0]), abs(fbb[1])

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
        i1[keep], i2[keep], errs[keep] = solve_two_rf(
            resid_targets[keep], fbb[0], fbb[1], pset)
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
    analog columns) falls back to the pseudo-inverse with a warning.
    """
    analog = np.asarray(analog, dtype=complex)
    v = np.asarray(v, dtype=complex)
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
    if not 1 <= n_rf <= v.size:
        raise ValueError(f"n_rf must be in [1, {v.size}], got {n_rf}")
    if t_max < 0:
        raise ValueError(f"iteration count t_max must be >= 0, got {t_max}")
    pset = phase_set(b)
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
    for _ in range(int(t_max)):
        if n_rf == 2:
            # all rows in closed form; a row keeps its phases if they are better
            i1, i2, new_res = solve_two_rf(v, fbb[0], fbb[1], pset)
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

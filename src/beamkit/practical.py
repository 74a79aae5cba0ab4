"""Practical codeword design under quantized-phase hybrid constraints.

A practical codeword realizes an ideal codeword v as F f, where the analog
matrix F has unit-modulus entries with b-bit quantized phases and the
digital vector f has one entry per RF chain.  The alternating scheme
solves least squares for f, then rewrites each antenna row of F: exact
quantization for one chain, a closed-form two-phasor match for two chains,
and a cyclic per-phase search that re-solves two free phasors for three or
more chains.

That search skips the two-phasor solve for every candidate that provably
cannot be accepted.  Any quantized pair f1 e^{j phi_m1} + f2 e^{j phi_m2}
equals e^{j phi_m1} (f1 + f2 e^{j 2 pi d / 2^b}), d = m2 - m1, so its
modulus is one of 2^b ring moduli, and no pair comes closer to a target
than the target's modulus is to the nearest ring.  fs_row tabulates that
ring bound over the target's modulus once per digital vector, each entry
the least bound over its bucket of moduli.  A modulus whose bucket index
rounds one off lies within a few ulps of the edge it crossed, and the bound
moves no more than the modulus does, so the one margin _BOUND_MARGIN
covers that rounding as it covers the bound's and the residual's own.  A
candidate whose bound exceeds the row's incumbent residual by more than
that margin could never win, tie or be accepted; skipping it changes no
index, residual or step count.  Unlike the continuous-phase distance, the
ring bound is nonzero between rings inside the pair's reach: the kernel's
targets in build_codebook(32, n_rf=4, b=6) fell from 2,590,189 to
1,059,633.  The remaining solves and the two-chain
match run one kernel, _two_rf_solve.  fs_altmin designs a stack of
codewords, such as a codebook layer, with one row search per alternation
over the rows of them all, and one stacked least-squares solve.

The kernel works in blocks of up to _SOLVE_BLOCK targets, and writes its
large temporaries into buffers that each thread allocates once and reuses
for every block and call.  Fresh temporaries of that size (about 700 KB a
block) are freed at the end of each block; glibc then returns pages to the
kernel, because the memory lies above its trim threshold (or was mapped
on its own, above its mmap threshold), and the next block page-faults them
in again.  Reusing the buffers took one 1,024-target block from about 630
to 390 us on a 2-core x86-64 machine.  The kernel also wraps phases by
compares, not np.remainder, and finds each first minimum with a minimum
and a compare, not argmin: the same bits, which took that block to about
290 us.  fs_row keeps its per-step (rows x candidates) arrays in
per-thread buffers too, grown to the widest step it has run.
"""

import contextlib
import functools
import math
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .arrays import _count, _finite
from .ideal import SynthesisError, _named

__all__ = [
    "phase_set",
    "HybridCodeword",
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
# fraction of the bound: the bound is exactly 0 for every target whose
# modulus shares a bucket with a ring modulus, where a relative margin
# would be no margin at all.
_BOUND_MARGIN = 256 * np.finfo(float).eps
# The two-phasor kernel's constants: offsets -1, 0, 1 around each rounded
# phase, as positions in a phasor table padded by one entry at each end; the
# (branch, d1, d2) of the 18 candidates in search order, and apart, with
# the branch as the row 2 * branch of its first phasor among the (branch,
# phasor) rows of rounded phases; the sign of arccos in (th1, th2) of
# branches a and b; and the arccos arguments 0/0 resolves to, per phasor
# (anti-aligned phasors).
_OFFSETS = np.array([0, 1, 2])[:, None]
_CANDIDATES = np.indices((2, 3, 3)).reshape(3, -1).T
_CAND_ROW, _CAND_D1, _CAND_D2 = _CANDIDATES.T * np.array([[2], [1], [1]])
_BRANCH_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None]
_NAN_ARGS = np.array([[1.0], [-1.0]])
# Targets per block of the two-phasor kernel.  Its five largest temporaries
# (720 bytes per target) live in per-thread buffers sized for one block,
# 0.74 MB, not in fresh arrays, whose frees crossed glibc's trim or mmap
# threshold and made every block page-fault its memory in again.
_SOLVE_BLOCK = 1024
_TWO_PI = 2.0 * np.pi
# Buckets of |gamma| in each of fs_row's ring-bound tables (_ring_table).
_RING_BUCKETS = 512
# 18 - c for candidate c: the largest weight of a column's minima is its first
_FIRST_WEIGHTS = np.arange(len(_CANDIDATES), 0, -1, dtype=np.uint8)[:, None]
# Each thread's kernel buffers (numpy releases the GIL inside ufuncs, so
# threads must not share them), and each buffer's shape per target and dtype.
_scratch = threading.local()
_SCRATCH = (((2, 2, 3), int), ((2, 3), complex), ((2, 3), complex), ((2, 3, 3), complex),
            ((18,), float))


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
    """Wrap angles into [-pi, pi), or to +pi where (theta + pi) mod 2 pi
    rounds up to 2 pi: less than about 4.4e-16 below an odd multiple of pi,
    as np.nextafter(-pi, -4) is.  _quantize_index maps +pi to the last phase."""
    return (np.asarray(theta, dtype=float) + np.pi) % (2.0 * np.pi) - np.pi


def _check_indices(name, idx, bits, shape_ok, shape):
    """The rule for phase indices: ValueError naming idx unless it has the
    shape described by shape (shape_ok) and integers in [0, 2^bits)."""
    if not (shape_ok and idx.dtype.kind in "iu"
            and (not idx.size or 0 <= idx.min() and idx.max() < 2**bits)):
        raise ValueError(f"{name} must be a {shape} integer array "
                         f"with entries in [0, 2^{bits})")


def _quantize_index(theta, bits):
    """Index of the b-bit phase-set member closest (circularly) to the
    finite angles theta, b = bits; equidistant ties resolve to the smaller
    phase value."""
    size = 2**bits
    x = (wrap_phase(theta) + np.pi) / (2.0 * np.pi / size)
    idx = np.ceil(x).astype(int) - 1
    return np.minimum(np.maximum(idx, 0), size - 1)


def _wrap_near(theta):
    """wrap_phase(theta) bit for bit, for a float array theta, by compares
    in place of np.remainder, which costs about three times as much.

    x = theta + pi loses 2 pi while x >= 2 pi and gains 2 pi while x < 0;
    then pi is subtracted.  While |x| <= 4 pi (so for |theta| <= 3 pi)
    every step but the last gain is exact (Sterbenz), as np.remainder's
    fmod is, and that gain rounds as np.remainder's own fix-up does.  A
    theta outside that range, or not finite, takes wrap_phase.
    """
    x = theta + np.pi
    lo, hi = (x.min(), x.max()) if x.size else (0.0, 0.0)
    if not (-2.0 * _TWO_PI <= lo and hi <= 2.0 * _TWO_PI):
        return wrap_phase(theta)
    while hi >= _TWO_PI:  # at most twice; x - 0.0 is x
        x -= _TWO_PI * (x >= _TWO_PI)
        hi -= _TWO_PI
    while lo < 0.0:  # x + 0.0 turns -0.0 into 0.0, which subtracting pi hides
        x += _TWO_PI * (x < 0.0)
        lo += _TWO_PI
    x -= np.pi
    return x


def _quantize_near(theta, bits):
    """_quantize_index of a float array through _wrap_near, in place on
    the wrapped angles; the same operations in the same order."""
    size = 2**bits
    x = _wrap_near(theta)
    x += np.pi
    x /= 2.0 * np.pi / size
    idx = np.ceil(x, out=x).astype(int)
    idx -= 1
    np.maximum(idx, 0, out=idx)
    return np.minimum(idx, size - 1, out=idx)


def _first_min(residuals):
    """(argmin(axis=0), the minima) of an (18, M) array, with the first
    minimum winning ties.  A minimum over axis 0, a compare and a weighted
    maximum took about 30 us at M = 1024, against 80 us for argmin over
    that axis, which gathers strided columns.  A column holding NaN has no
    entry equal to its minimum; argmin then runs."""
    low = residuals.min(axis=0)
    top = (residuals == low).view(np.uint8)
    top *= _FIRST_WEIGHTS
    top = top.max(axis=0)
    if not top.all():
        best = residuals.argmin(axis=0)
        return best, residuals[best, np.arange(best.size)]
    return np.subtract(len(_FIRST_WEIGHTS), top, dtype=np.intp), low


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
        _check_indices("phase_indices", idx, self.bits, idx.ndim == 2 and idx.size,
                       "non-empty 2-D")
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


def _design_input(v, entry=None):
    """v as a complex array, rejected unless its norm is finite and nonzero;
    entry, v's index in a stack, is named in the error."""
    v = np.asarray(v, dtype=complex)
    nrm = np.linalg.norm(v)
    if not (np.isfinite(nrm) and nrm > 0.0):
        raise SynthesisError(f"codeword{_named(entry)} to factor has norm {nrm}", entry)
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
    """The constants _two_rf_solve needs of the digital entries f1, f2 (one
    pair per row; scalars make one row) and pset: |f1| and |f2| (R,); a
    (6, R) array of (z1+z2)(z1-z2), its negation, 2|f1|, 2|f2| and the
    angles of f1 and f2; the phasor tables of f1 and f2, each row padded by
    one entry at each end and the rows laid end to end; the padded index
    table; and b."""
    f = np.array([f1, f2], dtype=complex).reshape(2, -1)
    # np.hypot rounds like scalar abs(); np.abs may take a vector path
    z = np.hypot(f.real, f.imag)
    consts = np.empty((6, f.shape[1]))
    np.multiply(z[0] + z[1], z[0] - z[1], out=consts[0])
    np.negative(consts[0], out=consts[1])
    np.multiply(2.0, z, out=consts[2:4])
    np.arctan2(f.imag, f.real, out=consts[4:6])  # np.angle without its wrapper
    wrap = np.arange(-1, pset.size + 1) % pset.size  # the padded index table
    tables = f[:, :, None] * pset.phasors[wrap]
    return z[0], z[1], consts, tables[0].ravel(), tables[1].ravel(), wrap, pset.bits


def _two_rf_phases(gamma, alpha, setup, rows=None):
    """Both continuous branches of the two-phasor match, wrapped: th (2, 2, M)
    with th[0] = (th1a, th2a), th[1] = (th1b, th2b).  rows gives each
    target's row of the setup; None, for a one-row setup, gives row 0 to
    all.  Infeasible triangles (|gamma| outside [|z1-z2|, z1+z2]) clamp the
    arccos arguments, which aligns or anti-aligns both phasors with the
    target -- the optimum.  Each angle before wrapping is an arctan2 less
    another plus or minus an arccos, so |th| <= 3 pi, where _wrap_near
    never falls back."""
    consts = setup[2] if rows is None else setup[2].take(rows, axis=1)
    offset, scale, angles = consts[0:2], consts[2:4], consts[4:6]
    # (alpha^2 +- (z1+z2)(z1-z2)) / (2 z alpha) per phasor.  A zero entry
    # makes its own argument infinite or NaN and the other's at least 1, so
    # the live phasor aligns with the target (the zero one's phase adds
    # nothing); 0/0, alpha == 0 with z1 == z2, gives anti-aligned phasors.
    arg = alpha**2 + offset
    zero = not (scale.all() and alpha.all())
    with np.errstate(divide="ignore", invalid="ignore") if zero else \
            contextlib.nullcontext():
        arg /= scale * alpha
    if zero:
        np.copyto(arg, _NAN_ARGS, where=np.isnan(arg))
    np.clip(arg, -1.0, 1.0, out=arg)
    beta = np.arctan2(gamma.imag, gamma.real)  # np.angle without its wrapper
    # x + (-d) rounds exactly as x - d, and adding -a as subtracting a
    return _wrap_near(beta - angles + _BRANCH_SIGNS * np.arccos(arg, out=arg))


def _two_rf_solve(gamma, alpha, setup, rows=None):
    """Solve the two-phasor match gamma ~ f1 e^{j th1} + f2 e^{j th2}.

    gamma is a 1-D complex array of finite targets, alpha = |gamma|, setup
    the _two_rf_setup of the digital entries f1, f2 and the phase set, and
    rows each target's setup row (None for a one-row setup).  Both
    continuous branches are rounded to the nearest members of the phase set
    and the 3x3 index neighborhood of each rounded pair is searched, which
    recovers pairs that rounding the two coupled phases apart misses;
    returns (idx1, idx2, residual) of the best of the 18 candidates.  Runs
    in blocks of at most _SOLVE_BLOCK targets, which bounds the temporaries.
    """
    scratch = _kernel_scratch()
    blocks = [_two_rf_block(gamma[lo:lo + _SOLVE_BLOCK], alpha[lo:lo + _SOLVE_BLOCK], setup,
                            None if rows is None else rows[lo:lo + _SOLVE_BLOCK], scratch)
              for lo in range(0, max(gamma.size, 1), _SOLVE_BLOCK)]  # one at least
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _kernel_scratch():
    """This thread's buffers for a block of _two_rf_block, made on its first
    call (or when _SOLVE_BLOCK has grown since): flat, for the (2, 2, 3, M)
    table positions, the two (2, 3, M) phasor gathers, the (2, 3, 3, M)
    differences and the (18, M) residuals at M = _SOLVE_BLOCK."""
    if getattr(_scratch, "block", 0) < _SOLVE_BLOCK:
        _scratch.block = _SOLVE_BLOCK
        _scratch.buffers = tuple(np.empty(math.prod(shape) * _SOLVE_BLOCK, dtype)
                                 for shape, dtype in _SCRATCH)
    return _scratch.buffers


def _row_scratch(rows, size):
    """This thread's buffers for an fs_row step of rows x size candidates,
    each shaped (rows, size): the residual targets (complex), then alpha,
    the bound and the errors (float).  They grow to the widest step asked
    for; fresh arrays of that size page-faulted their memory in on every
    step, as the kernel's temporaries did."""
    n = rows * size
    if getattr(_scratch, "row_entries", 0) < n:
        _scratch.row_entries = n
        _scratch.row_buffers = (np.empty(n, complex), np.empty(n), np.empty(n), np.empty(n))
    return tuple(buf[:n].reshape(-1, size) for buf in _scratch.row_buffers)


def _two_rf_block(gamma, alpha, setup, rows, scratch):
    """One block of _two_rf_solve, its large temporaries in the leading,
    contiguous entries of the buffers scratch holds.

    Both branches' phases are rounded in one buffer; gamma - f1 e1 is formed
    once per first-phase offset, and each candidate's residual is
    |(gamma - f1 e1) - f2 e2|.  The first minimum over the 18 candidates
    wins: branch a before b, offsets (d1, d2) in row-major order.  Every
    value returned is a fresh array, not a view of scratch.
    """
    f1e, f2e, wrap, bits = setup[3:]
    m = gamma.size
    at, e1, e2, diff, residuals = (buf[:math.prod(shape) * m].reshape(*shape, m)
                                   for buf, (shape, _) in zip(scratch, _SCRATCH))
    r = _quantize_near(_two_rf_phases(gamma, alpha, setup, rows), bits)
    np.add(r[:, :, None], _OFFSETS, out=at)  # (branch, phasor, d, M), padded positions
    if rows is not None:
        at += rows * wrap.size  # in each target's row of the tables
    # positions are in range: mode "clip" only spares "raise" its copy of out
    f1e.take(at[:, 0], out=e1, mode="clip")
    f2e.take(at[:, 1], out=e2, mode="clip")
    np.subtract(gamma, e1, out=e1)
    np.subtract(e1[:, :, None], e2[:, None], out=diff)
    np.abs(diff, out=residuals.reshape(diff.shape))  # (branch, d1, d2) flattened
    best, low = _first_min(residuals)
    # the winner's rounded indices, gathered flat from r's (branch, phasor)
    # rows of m; r + d is the padded position of offset d - 1 from index r
    pos = _CAND_ROW.take(best)
    pos *= m
    pos += np.arange(m)
    r = r.reshape(-1)
    i1 = r.take(pos)
    i1 += _CAND_D1.take(best)
    pos += m
    i2 = r.take(pos)
    i2 += _CAND_D2.take(best)
    return wrap.take(i1), wrap.take(i2), low


def _ring_table(setup, size):
    """fs_row's ring bound for the digital entries f1, f2 whose
    _two_rf_setup is setup (one pair per vector) and a phase set of the
    given size, tabulated over |gamma|.

    Any quantized pair has f1 e^{j phi_m1} + f2 e^{j phi_m2} = e^{j phi_m1}
    (f1 + f2 e^{j 2 pi d / size}), d = m2 - m1 mod size, so its modulus is
    one of the size ring moduli rho_d = |f1 + f2 e^{j 2 pi d / size}|, and
    no pair comes closer to a target gamma than LB(|gamma|) = min_d
    | |gamma| - rho_d |.  A vector's table holds _RING_BUCKETS entries over
    [0, rho_max] in buckets of width h = rho_max / (_RING_BUCKETS - 1): entry
    k is the least LB over [k h, (k + 1) h], the distance from the bucket's
    centre to the nearest ring less h / 2 (0 if a ring lies in the bucket).
    The last entry, open above, is 0; there |gamma| - rho_max is the LB.

    Returns the tables laid end to end, (G * _RING_BUCKETS,), each vector's
    1 / h and each vector's rho_max, (G,) each.
    """
    z1, z2, consts = setup[:3]
    g = z1.size
    # the rings in ascending order, without np.sort, whose vector sort maps
    # 128 KB of numpy that the row search does not otherwise touch: with
    # D = 2 pi / size and e the distance from angle(f2 / f1) to the nearest
    # multiple of D, |wrap(angle(f2 / f1) + d D)| runs through e, D - e,
    # D + e, 2 D - e, ... over d, and rho_d falls as that angle grows
    step = _TWO_PI / size
    turn = consts[5] - consts[4]  # angle(f2) - angle(f1)
    turn -= np.ceil(turn / step) * step  # in (-D, 0]
    e = np.where(turn < -0.5 * step, step + turn, -turn)
    w = np.ceil(np.arange(size) / 2.0) * step + np.tile([1.0, -1.0], size // 2) * e[:, None]
    rings = np.abs(z1[:, None] + z2[:, None] * np.exp(1j * w))[:, ::-1]
    top = rings[:, -1]
    h = np.maximum(top / (_RING_BUCKETS - 1), np.finfo(float).tiny)[:, None]
    # ring i is the nearest to the centres between its midpoints with rings
    # i - 1 and i + 1: cut i counts the centres below the (i, i + 1)
    # midpoint, kept in order where rounding swaps two near-equal rings
    cut = np.empty((g, size + 1), dtype=int)
    cut[:, 0], cut[:, -1] = 0, _RING_BUCKETS
    np.copyto(cut[:, 1:-1], np.ceil((rings[:, 1:] + rings[:, :-1]) / (2.0 * h) - 0.5),
              casting="unsafe")
    np.maximum.accumulate(np.maximum(cut, 0, out=cut), axis=1, out=cut)
    np.minimum(cut, _RING_BUCKETS, out=cut)
    table = np.repeat(rings.ravel(), np.diff(cut).ravel()).reshape(g, _RING_BUCKETS)
    table -= (np.arange(_RING_BUCKETS) + 0.5) * h
    np.abs(table, out=table)
    table -= 0.5 * h
    # 0 for a ring in the bucket, for the last bucket, and for NaN where
    # |f1| + |f2| overflows (the margin then keeps every candidate)
    table[~(table > 0.0)] = 0.0
    table[:, -1] = 0.0
    return table.ravel(), 1.0 / h[:, 0], top


def fs_row(target, fbb, pset, init_indices, owner=None):
    """Cyclic search of R antenna rows, each with at least three RF chains.

    Row r of init_indices (R, n_rf) is fitted to entry r of the 1-D target
    with a digital vector, every row on its own.  fbb is one (n_rf,) vector
    for every row, or a stack (G, n_rf) of them with owner (R,) giving each
    row's.  A shape that does not fit, a non-finite target or fbb entry, an
    index that is not an integer in [0, 2^b), or a target entry whose start
    residual overflows raises ValueError naming the argument.  At step t, phase
    p = t mod (n_rf - 2) + 2 of each row still searching is swept over the
    whole phase set; for each candidate the first two phases are re-solved
    in closed form against the residual target, and the best candidate wins
    (ties go to the smaller phase value) unless it is worse than the row's
    incumbent.  A row stops after n_rf - 2 steps in a row leave it
    unchanged, or at the safety cap.

    A candidate with residual target gamma is solved only if its ring
    bound, less a rounding margin, is at most the row's incumbent residual.
    Every quantized pair f1 e^{j phi_m1} + f2 e^{j phi_m2} has one of the
    2^b ring moduli rho_d = |f1 + f2 e^{j 2 pi d / 2^b}|, so none comes
    closer to gamma than LB = min_d | |gamma| - rho_d |.  The ring bound is
    the larger of |gamma| - max_d rho_d and the entry of |gamma|'s bucket
    in a table of each digital vector's least LB per bucket, built once per
    call (_ring_table); both are at most LB.  The rings lie in
    [||f1| - |f2||, |f1| + |f2|], so inside that reach the bound is nonzero
    wherever |gamma| falls between rings, where the continuous-phase
    distance is 0.  Rounding: the bucket index floor(|gamma| / h) lands one
    bucket off only for a |gamma| within a few ulps of a bucket edge, and LB
    moves no more than |gamma| does, so the entry found errs by those ulps;
    it, the table's entries and the kernel's residual each err by a few
    ulps of |gamma| + |f1| + |f2|, far inside the margin.  A skipped
    candidate's residual would exceed the incumbent, so it can neither win,
    nor tie the winner, nor be accepted; every candidate that can is still
    solved.  The result is the one an exhaustive sweep gives.  A step's
    kept candidates are solved in one kernel call, which reuses the bound's
    |gamma| and the constants of each digital vector's f1, f2 (moduli,
    angles, phasor tables), set up once per call.

    Returns (indices (R, n_rf), residuals (R,), steps), steps being the
    slowest row's step count.
    """
    target, fbb = _finite("target", target, complex), _finite("fbb", fbb, complex)
    if target.ndim != 1:
        raise ValueError(f"target must be 1-D, got shape {target.shape}")
    if owner is None:
        ok = fbb.ndim == 1
    else:
        owner = np.asarray(owner)
        ok = (fbb.ndim == 2 and owner.shape == target.shape and owner.dtype.kind in "iu"
              and np.all((0 <= owner) & (owner < len(fbb))))
    if not ok:
        raise ValueError(f"fbb must have shape (n_rf,), or (G, n_rf) with owner naming one of "
                         f"its G rows for each of the {target.size} rows, got {fbb.shape}")
    n_rf = fbb.shape[-1]
    if n_rf < 3:
        raise ValueError("fs_row requires at least three RF chains")
    init = np.asarray(init_indices)
    _check_indices("init_indices", init, pset.bits, init.shape == (target.size, n_rf),
                   f"{target.size} x {n_rf}")
    phasors = pset.phasors
    idx = np.array(init, dtype=int)
    per_row = fbb if owner is None else fbb[owner]
    # np.hypot rounds like scalar abs(), as the golden ledger does; np.abs
    # on an array may take a vector path that differs in the last bit
    start = target - np.sum(per_row * phasors[idx], axis=1)
    res = np.hypot(start.real, start.imag)
    if not np.isfinite(res).all():  # an inf incumbent would accept any candidate
        i = np.flatnonzero(~np.isfinite(res))[0]
        raise ValueError(f"target entry {i} is out of range: its start residual is {res[i]}")
    setup = _two_rf_setup(fbb[..., 0], fbb[..., 1], pset)
    table, scale, top = _ring_table(setup, pset.size)
    zsum = setup[0] + setup[1]  # the margin's scale is |gamma| + z1 + z2
    # each row's constants, and its table's start in the tables
    zsum, scale, top = (zsum[0], scale[0], top[0]) if owner is None else \
        (zsum[owner, None], scale[owner, None], top[owner, None])
    base = None if owner is None else owner[:, None] * _RING_BUCKETS

    size = pset.size
    cap = _ROW_CAP_PER_PHASE * (n_rf - 2)
    unchanged = np.zeros(target.size, dtype=int)
    active = np.arange(target.size)  # rows still searching
    t = 0
    while t < cap and active.size:
        p = t % (n_rf - 2) + 2
        rows = idx[active]
        f, zs, sc, rho = (fbb, zsum, scale, top) if owner is None else \
            (per_row[active], zsum[active], scale[active], top[active])
        # residual targets for every candidate value of phase p, one row each;
        # phase p's own term is rounded part by part like a scalar product
        # (as in the golden ledger), not fused like a vector product
        e = phasors[rows]
        fp, ep = f[..., p], e[:, p]
        own = np.column_stack([fp.real * ep.real - fp.imag * ep.imag,
                               fp.real * ep.imag + fp.imag * ep.real])
        fixed = np.sum((f * e)[:, 2:], axis=1) - own.view(complex)[:, 0]
        resid_targets, alpha, bound, errs = _row_scratch(active.size, size)
        np.multiply(fp[..., None], phasors, out=resid_targets)
        np.subtract((target[active] - fixed)[:, None], resid_targets, out=resid_targets)
        # solve only the candidates whose ring bound, less the margin, does
        # not exceed the incumbent: their flat positions in (rows,
        # candidates).  errs holds the bucket positions, then the bound's
        # other terms, until the kernel has run.  A NaN position (from an
        # overflowed alpha) clips to some entry, and its NaN bound keeps
        # nothing.
        np.abs(resid_targets, out=alpha)
        at = errs.view(np.intp)
        np.minimum(np.multiply(alpha, sc, out=bound), _RING_BUCKETS - 1, out=at,
                   casting="unsafe")
        if base is not None:
            at += base[active]
        table.take(at, out=bound, mode="clip")
        np.maximum(bound, np.subtract(alpha, rho, out=errs), out=bound)
        bound -= np.multiply(_BOUND_MARGIN, np.add(alpha, zs, out=errs), out=errs)
        kept = np.flatnonzero(bound <= res[active, None])
        i1, i2, solved = _two_rf_solve(resid_targets.take(kept), alpha.take(kept), setup,
                                       None if owner is None else
                                       owner[active].take(kept // size))
        errs.fill(np.inf)  # skipped candidates keep +inf
        errs.put(kept, solved)
        best = np.argmin(errs, axis=1)
        # a row takes its best candidate unless it is worse than the
        # incumbent, so every residual sequence is non-increasing.  A taken
        # candidate was solved: its rank among the kept positions finds it
        won = np.flatnonzero(errs[np.arange(active.size), best] <= res[active])
        at = np.searchsorted(kept, won * size + best[won])
        new = np.column_stack([i1[at], i2[at], best[won]])
        moved = np.zeros(active.size, dtype=bool)
        moved[won] = np.any(new != rows[won][:, [0, 1, p]], axis=1)
        idx[active[won, None], [0, 1, p]] = new
        res[active[won]] = solved[at]
        t += 1
        unchanged[active] = np.where(moved, 0, unchanged[active] + 1)
        active = active[unchanged[active] < n_rf - 2]
    return idx, res, t


def ls_fbb(analog, v):
    """Least-squares digital vector for a fixed analog matrix.

    Solves (F^H F) f = F^H v; a near-singular Gram matrix (duplicated
    analog columns) falls back to the pseudo-inverse with a warning.  An
    analog matrix that is not 2-D (n x n_rf), a v that is not 1-D of
    length n, or either with a norm that is not finite raises ValueError
    naming it.
    """
    analog = np.asarray(analog, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if analog.ndim != 2:
        raise ValueError(f"analog must be 2-D (n x n_rf), got shape {analog.shape}")
    if v.shape != analog.shape[:1]:
        raise ValueError(f"v must be 1-D of length n = {analog.shape[0]}, got shape {v.shape}")
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


def _ls_stack(analog, v):
    """ls_fbb(analog[e], v[e]) for every entry e of a stack, bit for bit:
    analog (E, n, n_rf), v (E, n), both finite and unchecked; (E, n_rf).

    Each slice of the stacked products has the layout of ls_fbb's 2-D
    operands, so it makes the same BLAS call: gemm for the Gram, gemv for
    the right-hand side (a (n, 1) column, as ls_fbb's 1-D v is to matmul).
    np.linalg.cond and np.linalg.solve then run one LAPACK call per entry
    of the stack, as they do for one matrix: the SVD of each Gram, so an
    entry is flagged exactly where ls_fbb's own cond test flags it, and
    gesv on an (E, n_rf, 1) stack, as for one 1-D right-hand side (a 2-D
    one would be read as a stack of matrices).  A flagged entry goes
    through ls_fbb itself, which warns and takes the pseudo-inverse.
    """
    adj = analog.conj().transpose(0, 2, 1)
    gram, rhs = adj @ analog, adj @ v[..., None]
    singular = np.linalg.cond(gram) > 1e12
    if not singular.any():  # the usual case, without the gathers below
        return np.linalg.solve(gram, rhs)[..., 0]
    ok = ~singular
    out = np.empty(rhs.shape[:2], dtype=complex)
    out[ok] = np.linalg.solve(gram[ok], rhs[ok])[..., 0]
    for e in np.flatnonzero(singular):
        out[e] = ls_fbb(analog[e], v[e])
    return out


def fs_altmin(v, n_rf, b, t_max=50, seed=0, trace=None):
    """Alternating design of the quantized analog matrix and digital vector.

    Starts from a random quantized analog matrix, alternates least squares
    for the digital vector with row-wise analog redesign, and stops after
    t_max outer iterations or when the digital vector reaches a fixed
    point.  The final digital vector is rescaled so the realized codeword
    is unit-norm.  trace, if given, collects the fitting residual after
    every least-squares step (non-increasing).

    With t_max > 0, a single RF chain needs no alternation: each entry's
    phase is quantized on its own, with the digital scalar 1/sqrt(n).
    With t_max = 0, every n_rf returns the seeded random start and its
    least-squares digital vector, rescaled.
    A zero or non-finite v, or a realized codeword that collapses to zero,
    raises SynthesisError.

    v may also be a stack (E, n) of codewords, with seed a sequence of E
    seeds; a list of E HybridCodewords is then returned, entry e equal bit
    for bit to fs_altmin(v[e], ..., seed=seed[e]).  The entries' analog rows
    are redesigned together, while each keeps its own start, least-squares
    steps and fixed-point exit.  trace takes only a single codeword.  A
    SynthesisError names the entry that failed, and holds its index in
    entry.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim not in (1, 2):
        raise ValueError(f"v must be a codeword or a stack of them, got shape {v.shape}")
    stacked = v.ndim == 2
    v = v if stacked else v[None]
    entries = range(len(v)) if stacked else [None]
    for e, row in zip(entries, v):
        _design_input(row, e)
    n_rf = _count("n_rf", n_rf, 1, v.shape[1])
    t_max = _count("t_max", t_max, 0)
    if stacked:
        if trace is not None:
            raise ValueError("trace takes only a single codeword")
        if np.ndim(seed) != 1 or len(seed) != len(v):
            raise ValueError(f"seed must be {len(v)} counts, one per codeword, got {seed!r}")
    seeds = [_count("seed", s, 0) for s in (seed if stacked else [seed])]
    pset = phase_set(_count("b", b, 1, _MAX_BITS))
    hybrids = _alternate(v, n_rf, pset, t_max, seeds, trace, entries)
    return hybrids if stacked else hybrids[0]


def _alternate(v, n_rf, pset, t_max, seeds, trace, entries):
    """fs_altmin on checked input: v (E, n), one seed per row; entries are
    the rows' indices a SynthesisError names (None for a single codeword)."""
    if n_rf == 1 and t_max > 0:
        hybrids = [design_nrf1(row, pset) for row in v]
        if trace is not None:
            trace.append(float(np.linalg.norm(v[0] - hybrids[0].realized)))
        return hybrids

    n = v.shape[1]
    idx = np.empty((len(v), n, n_rf), dtype=int)
    for e, seed in enumerate(seeds):
        idx[e] = np.random.default_rng(seed).integers(0, pset.size, size=(n, n_rf))
    fbb = _ls_stack(pset.phasors[idx], v)
    if trace is not None:
        trace.append(float(np.linalg.norm(v[0] - pset.phasors[idx[0]] @ fbb[0])))
    live = np.arange(len(v))  # entries whose digital vector still moves
    for _ in range(t_max):
        if not live.size:
            break
        # the rows of every live entry (take: 0.4-0.7 us, [] 1.0-1.6 us here)
        vl = v.take(live, axis=0)
        target, rows = vl.reshape(-1), idx.take(live, axis=0).reshape(-1, n_rf)
        fe = fbb.take(live, axis=0)
        # each row's entry among the live ones; None while only one is live
        owner = np.repeat(np.arange(len(live)), n) if len(live) > 1 else None
        if n_rf == 2:
            # all rows in closed form; a row keeps its phases if they are better
            i1, i2, new_res = _two_rf_solve(
                target, np.abs(target), _two_rf_setup(fe[:, 0], fe[:, 1], pset), owner)
            # gathered, not the strided analog[:, 0]: a complex product
            # over a strided array may round differently in the last bit
            f = fe[0] if owner is None else fe[owner]
            old = np.abs(target - f[..., 0] * pset.phasors[rows[:, 0]]
                         - f[..., 1] * pset.phasors[rows[:, 1]])
            rows = np.where((new_res <= old)[:, None], np.column_stack([i1, i2]), rows)
        else:
            rows, _, _ = fs_row(target, fe[0] if owner is None else fe, pset, rows, owner)
        idx[live] = rows.reshape(-1, n, n_rf)
        new = _ls_stack(pset.phasors[idx.take(live, axis=0)], vl)
        if trace is not None:
            trace.append(float(np.linalg.norm(v[0] - pset.phasors[idx[0]] @ new[0])))
        # np.linalg.norm of each entry's step on its own: a norm over an
        # axis sums in another order, which may round across _FBB_TOL
        moving = [not np.linalg.norm(step) < _FBB_TOL for step in new - fe]
        fbb[live] = new
        live = live[moving]

    hybrids = []
    for e, entry in enumerate(entries):
        # v orthogonal to every analog column leaves nothing to rescale
        nrm = np.linalg.norm(pset.phasors[idx[e]] @ fbb[e])
        if not nrm > 0.0:
            raise SynthesisError(f"realized codeword{_named(entry)} collapsed to zero", entry)
        hybrids.append(HybridCodeword(idx[e], pset.bits, fbb[e] / nrm))
    return hybrids


def deviation(v, vp):
    """l2 deviation between an ideal codeword and a realized one.  A
    non-finite entry of either raises ValueError naming it."""
    v = _finite("v", v, complex)
    vp = _finite("vp", vp, complex)
    if v.shape != vp.shape:
        raise ValueError(f"length mismatch: {v.shape} vs {vp.shape}")
    return float(np.linalg.norm(v - vp))

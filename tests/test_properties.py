"""Property tests of the designs' invariants.

Examples are derandomized and bounded so the whole file stays within a
few seconds of tier-1 time.
"""

import dataclasses
import itertools
import os
import sys
import tempfile
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import beamkit.practical
from beamkit import (
    Channel,
    CodebookEntry,
    HierarchicalCodebook,
    HybridCodeword,
    SynthesisError,
    TrainingConfig,
    build_codebook,
    draw_channel,
    exhaustive_best_pair,
    fs_altmin,
    fs_row,
    hierarchical_search,
    ls_icd,
    make_target,
    measure,
    phase_set,
    ps_icd,
    steering_matrix,
    success_rate,
)
from beamkit.ideal import _DEGENERATE_RTOL, PhaseOptimizer, _assemble
from beamkit.practical import (
    _BOUND_MARGIN,
    _RING_BUCKETS,
    _ROW_CAP_PER_PHASE,
    _first_min,
    _ring_table,
    _two_rf_setup,
    _two_rf_solve,
    _wrap_near,
    wrap_phase,
)
from beamkit.serialization import load_hybrid, save_hybrid

_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)

_reals = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
_complex = st.builds(complex, _reals, _reals)
# the ring bound's edge cases for a digital vector's first two entries
_PAIR_KINDS = st.sampled_from(["free", "zero f1", "zero f2", "equal moduli"])


def _digital(data, shape):
    """A drawn digital vector, or stack of them, whose first two entries
    are free, or hold a zero f1 or f2, or share one modulus."""
    fbb = data.draw(arrays(complex, shape, elements=_complex))
    kind = data.draw(_PAIR_KINDS)
    if kind == "zero f1":
        fbb[..., 0] = 0.0
    elif kind == "zero f2":
        fbb[..., 1] = 0.0
    elif kind == "equal moduli":
        fbb[..., 1] = np.abs(fbb[..., 0]) * np.exp(1j * data.draw(st.floats(-np.pi, np.pi)))
    return fbb


def _solve(gamma, f1, f2, pset):
    """The quantized two-phasor match of the complex targets gamma."""
    return _two_rf_solve(gamma, np.abs(gamma), _two_rf_setup(f1, f2, pset))


@_SETTINGS
@given(
    gamma=arrays(complex, st.integers(1, 12), elements=_complex),
    f1=_complex,
    f2=_complex,
    bits=st.integers(1, 6),
)
def test_batched_two_rf_solve_equals_elementwise(gamma, f1, f2, bits):
    pset = phase_set(bits)
    batched = _solve(gamma, f1, f2, pset)
    for g in range(gamma.size):
        single = _solve(gamma[g:g + 1], f1, f2, pset)
        for whole, one in zip(batched, single):
            assert whole[g] == one[0]


@_SETTINGS
@given(
    n_rf=st.integers(3, 6),
    bits=st.sampled_from([1, 2, 4]),
    rows=st.integers(1, 8),
    data=st.data(),
)
def test_all_rows_fs_row_equals_one_row_calls(n_rf, bits, rows, data):
    pset = phase_set(bits)
    fbb = data.draw(arrays(complex, n_rf, elements=_complex))
    target = data.draw(arrays(complex, rows, elements=_complex))
    init = data.draw(arrays(np.int64, (rows, n_rf),
                            elements=st.integers(0, pset.size - 1)))
    idx, res, steps = fs_row(target, fbb, pset, init)
    one_row_steps = []
    for r in range(rows):
        i, e, t = fs_row(target[r:r + 1], fbb, pset, init[r:r + 1])
        np.testing.assert_array_equal(idx[r], i[0])
        assert res[r] == e[0]
        one_row_steps.append(t)
    assert steps == max(one_row_steps)


# The two-phasor match as it was before its kernel was fused, kept as the
# reference the kernel must equal bit for bit: one array per branch phase,
# 18 full-size index and residual arrays, np.angle and np.clip throughout.
_NEIGHBORHOOD = np.array([(d1, d2) for d1 in (-1, 0, 1) for d2 in (-1, 0, 1)])


def _two_rf_branches(gamma, f1, f2):
    """Continuous-phase branch solutions (th1a, th2a, th1b, th2b)."""
    gamma = np.asarray(gamma, dtype=complex)
    alpha = np.abs(gamma)
    beta = np.angle(gamma)
    z1, p1 = abs(f1), np.angle(f1)
    z2, p2 = abs(f2), np.angle(f2)
    with np.errstate(divide="ignore", invalid="ignore"):
        arg1 = (alpha**2 + (z1 + z2) * (z1 - z2)) / (2.0 * z1 * alpha)
        arg2 = (alpha**2 - (z1 + z2) * (z1 - z2)) / (2.0 * z2 * alpha)
    arg1 = np.nan_to_num(arg1, nan=1.0, posinf=1.0, neginf=-1.0)
    arg2 = np.nan_to_num(arg2, nan=-1.0, posinf=1.0, neginf=-1.0)
    a1 = np.arccos(np.clip(arg1, -1.0, 1.0))
    a2 = np.arccos(np.clip(arg2, -1.0, 1.0))
    th1a = _reference_wrap(beta - p1 + a1)
    th2a = _reference_wrap(beta - p2 - a2)
    th1b = _reference_wrap(beta - p1 - a1)
    th2b = _reference_wrap(beta - p2 + a2)
    return th1a, th2a, th1b, th2b


def _reference_wrap(theta):
    return (np.asarray(theta, dtype=float) + np.pi) % (2.0 * np.pi) - np.pi


def _reference_quantize(theta, bits):
    size = 2**bits
    x = (_reference_wrap(theta) + np.pi) / (2.0 * np.pi / size)
    idx = np.ceil(x).astype(int) - 1
    return np.clip(idx, 0, size - 1)


def _reference_solve_two_rf(gamma, f1, f2, pset):
    """The quantized match: (idx1, idx2, residual) of the best of the 18
    candidates, branch-major, offsets in _NEIGHBORHOOD order."""
    th1a, th2a, th1b, th2b = _two_rf_branches(gamma, f1, f2)
    gamma = np.asarray(gamma, dtype=complex)
    r1 = _reference_quantize(np.stack([th1a, th1b]), pset.bits)[:, None]
    r2 = _reference_quantize(np.stack([th2a, th2b]), pset.bits)[:, None]
    j1 = ((r1 + _NEIGHBORHOOD[:, 0, None]) % pset.size).reshape(18, -1)
    j2 = ((r2 + _NEIGHBORHOOD[:, 1, None]) % pset.size).reshape(18, -1)
    residuals = np.abs(
        gamma - (f1 * pset.phasors)[j1] - (f2 * pset.phasors)[j2]
    )
    best = np.argmin(residuals, axis=0)
    cols = np.arange(gamma.size)
    return j1[best, cols], j2[best, cols], residuals[best, cols]


def _assert_same_bits(got, expected):
    for a, b in zip(got, expected, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _assert_solve_matches_reference(gamma, f1, f2, bits):
    pset = phase_set(bits)
    _assert_same_bits(_solve(gamma, f1, f2, pset),
                      _reference_solve_two_rf(gamma, f1, f2, pset))


@_SETTINGS
@given(
    gamma=arrays(complex, st.integers(1, 40), elements=_complex),
    f1=_complex,
    f2=_complex,
    bits=st.integers(1, 8),
)
def test_two_rf_kernel_equals_reference_on_random_targets(gamma, f1, f2, bits):
    _assert_solve_matches_reference(gamma, f1, f2, bits)


@_SETTINGS
@given(
    gamma=arrays(complex, st.integers(1, 24), elements=_complex),
    zeros=st.data(),
    weights=st.sampled_from(["f1", "f2", "both", "neither"]),
    f1=_complex,
    f2=_complex,
    bits=st.integers(1, 6),
)
def test_two_rf_kernel_equals_reference_with_zeros(gamma, zeros, weights, f1,
                                                   f2, bits):
    # zero targets anywhere in the batch, and zero digital entries: the
    # 0/0 and x/0 arccos arguments the kernel resolves only when they occur
    gamma[zeros.draw(arrays(bool, gamma.size))] = 0.0
    f1 = 0.0j if weights in ("f1", "both") else f1
    f2 = 0.0j if weights in ("f2", "both") else f2
    _assert_solve_matches_reference(gamma, np.complex128(f1),
                                    np.complex128(f2), bits)


@_SETTINGS
@given(
    rows=st.integers(1, 16),
    edge=st.sampled_from(["outer", "inner", "equal"]),
    ulps=st.integers(-4, 4),
    bits=st.integers(1, 8),
    data=st.data(),
)
def test_two_rf_kernel_equals_reference_at_the_ring_edges(rows, edge, ulps,
                                                          bits, data):
    # |gamma| at |f1| + |f2| (outer) or ||f1| - |f2|| (inner; 0 when the
    # moduli are equal), a few ulps either side, where the arccos arguments
    # reach +-1 and are clipped
    mags = st.floats(0.25, 4.0)
    z1 = data.draw(mags)
    z2 = z1 if edge == "equal" else data.draw(mags)
    f1 = z1 * np.exp(1j * data.draw(st.floats(-np.pi, np.pi)))
    f2 = z2 * np.exp(1j * data.draw(st.floats(-np.pi, np.pi)))
    radius = z1 + z2 if edge == "outer" else abs(z1 - z2)
    angles = data.draw(arrays(float, rows, elements=st.floats(-np.pi, np.pi)))
    gamma = radius * (1.0 + ulps * np.finfo(float).eps) * np.exp(1j * angles)
    _assert_solve_matches_reference(gamma, f1, f2, bits)


@pytest.mark.parametrize("bits", [1, 2, 3, 6])
def test_two_rf_kernel_equals_reference_at_rounding_boundaries(bits):
    # targets reached exactly by phases at phase-set members, at the
    # midpoints between them and near 0, a few ulps either side, so the
    # continuous branches land within rounding of a quantization boundary
    # or of +-pi.  With a signed-zero digital entry (the phase of -0.0 + 0j
    # is pi) every offset of that entry's phase ties, the first one wins,
    # and the rounded index itself is returned: there the second wrap
    # decides the result.
    pset = phase_set(bits)
    half = np.pi / pset.size
    ulps = np.arange(-6, 7)
    points = np.concatenate([pset.values, pset.values + half])
    grid = np.concatenate([(points[:, None] * (1.0 + ulps * np.finfo(float).eps)
                            ).ravel(), ulps * 1e-17])
    minus_zero = complex(-0.0, 0.0)
    for f1, f2 in ((1.0, 1.0), (1.0, 0.5), (0.75 + 0.5j, 1.0 - 1.0j),
                   (1.0, minus_zero), (minus_zero, 1j), (1j, -minus_zero)):
        f1, f2 = np.complex128(f1), np.complex128(f2)
        for t2 in (pset.values[0], half, -half):
            gamma = f1 * np.exp(1j * grid) + f2 * np.exp(1j * t2)
            _assert_solve_matches_reference(gamma, f1, f2, bits)


def test_two_rf_kernel_on_no_targets():
    pset = phase_set(4)
    empty = np.zeros(0, dtype=complex)
    _assert_same_bits(_solve(empty, 1.0 + 0j, 0.5j, pset),
                      _reference_solve_two_rf(empty, 1.0 + 0j, 0.5j, pset))


def test_two_rf_kernel_equals_reference_around_the_block_size():
    # block splits, a last block of one target, and rows of constants
    # gathered per target
    block = beamkit.practical._SOLVE_BLOCK
    rng = np.random.default_rng(22)
    pset = phase_set(6)
    f = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    f[:, 2] = f[0, 0]  # equal phasors: swapped pairs tie at gamma = 0
    for m in (0, 1, block - 1, block, block + 1):
        gamma = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        gamma[::7] = 0.0
        _assert_solve_matches_reference(gamma, f[0, 0], f[1, 0], 6)
        rows = rng.integers(0, 3, m)
        got = _two_rf_solve(gamma, np.abs(gamma), _two_rf_setup(f[0], f[1], pset), rows)
        for r in range(3):
            mine = rows == r
            _assert_same_bits([a[mine] for a in got],
                              _reference_solve_two_rf(gamma[mine], *f[:, r], pset))


def test_near_wrap_equals_wrap_phase_bit_for_bit_within_three_pi(monkeypatch):
    multiples = np.arange(-3, 4) * np.pi
    theta = np.concatenate([
        np.random.default_rng(22).uniform(-3 * np.pi, 3 * np.pi, 200_000),
        multiples, np.nextafter(multiples, -np.inf), np.nextafter(multiples, np.inf),
        [0.0, -0.0, 3 * np.pi, -3 * np.pi]])
    theta = theta[np.abs(theta) <= 3 * np.pi]
    want = wrap_phase(theta)
    assert np.sum(want == np.pi) > 0  # the documented +pi is among them
    # within range, np.remainder never runs
    monkeypatch.setattr(beamkit.practical, "wrap_phase", None)
    _assert_same_bits([_wrap_near(theta)], [want])
    _assert_same_bits([_wrap_near(theta[:0])], [want[:0]])
    for t, w in zip(theta[-40:], want[-40:]):  # one at a time
        _assert_same_bits([_wrap_near(np.array([t]))], [np.array([w])])


def test_near_wrap_falls_back_to_wrap_phase_outside_its_range(monkeypatch):
    calls = []

    def counted(theta):
        calls.append(theta.size)
        return wrap_phase(theta)

    monkeypatch.setattr(beamkit.practical, "wrap_phase", counted)
    rng = np.random.default_rng(23)
    for outside in (5.5 * np.pi, -5.5 * np.pi, 1e10, np.inf, -np.inf, np.nan):
        theta = np.append(rng.uniform(-np.pi, np.pi, 99), outside)
        with np.errstate(invalid="ignore"):  # inf % 2 pi
            got, want = _wrap_near(theta), wrap_phase(theta)
        assert calls.pop(0) == theta.size
        _assert_same_bits([got], [want])
    # theta + pi within [-4 pi, 4 pi] keeps every step exact: no fallback
    theta = np.array([-5 * np.pi, np.nextafter(-5 * np.pi, 0), 3 * np.pi, -1.0])
    _assert_same_bits([_wrap_near(theta)], [wrap_phase(theta)])
    assert calls == []


def test_first_minimum_equals_argmin():
    rng = np.random.default_rng(24)
    residuals = rng.integers(0, 3, (18, 4000)).astype(float)  # ties everywhere
    residuals[:, :18] = 1.0  # all-equal columns
    residuals[:, 18:36] = np.diag(np.full(18, 0.5)) + 1.0  # one minimum per row
    residuals[:, 36] = np.inf
    residuals[5, 37] = np.inf
    cols = np.arange(residuals.shape[1])
    for nan_rows in ([], [3], [0, 17], list(range(18))):
        r = residuals.copy()
        r[nan_rows, 40] = np.nan
        best = r.argmin(axis=0)
        _assert_same_bits(_first_min(r), [best, r[best, cols]])


def _exhaustive_fs_row(target, fbb, pset, init_indices, gaps=None):
    """The reference sweep: fs_row's loop with no bound test, so every step
    solves the two-phasor match for every candidate of every active row,
    each through the reference match _reference_solve_two_rf, once per
    distinct (f1, f2) of the rows' digital vectors.  fbb is one (n_rf,)
    vector for every row or one per row, (R, n_rf).

    gaps, if given, collects (step, row, kind, gap) for every decision whose
    outcome changes indices: the winner against the runner-up where the
    winner is accepted ("runner-up"), and the winner against the incumbent
    where accepting it moves the row ("incumbent").  A gap is the distance
    between the two residuals over |target| + sum |fbb|, the size of the
    terms they are rounded from."""
    fbb = np.asarray(fbb, dtype=complex)
    n_rf = fbb.shape[-1]
    target = np.asarray(target, dtype=complex)
    fbb = np.broadcast_to(fbb, (target.size, n_rf))
    phasors = pset.phasors
    idx = np.array(init_indices, dtype=int)
    start = target - np.sum(fbb * phasors[idx], axis=1)
    res = np.hypot(start.real, start.imag)

    cap = _ROW_CAP_PER_PHASE * (n_rf - 2)
    unchanged = np.zeros(target.size, dtype=int)
    active = np.arange(target.size)
    t = 0
    while t < cap and active.size:
        p = t % (n_rf - 2) + 2
        rows, f = idx[active], fbb[active]
        e = phasors[rows]
        fp, ep = f[:, p], e[:, p]
        own = np.column_stack([fp.real * ep.real - fp.imag * ep.imag,
                               fp.real * ep.imag + fp.imag * ep.real])
        fixed = np.sum((f * e)[:, 2:], axis=1) - own.view(complex)[:, 0]
        resid_targets = (target[active] - fixed)[:, None] - fp[:, None] * phasors
        i1, i2 = (np.empty(resid_targets.shape, dtype=int) for _ in range(2))
        errs = np.empty(resid_targets.shape)
        groups = {}  # active positions by the bytes of their (f1, f2)
        for a, pair in enumerate(f[:, :2]):
            groups.setdefault(pair.tobytes(), []).append(a)
        for members in groups.values():
            found = _reference_solve_two_rf(resid_targets[members].ravel(),
                                            *f[members[0], :2], pset)
            for whole, part in zip((i1, i2, errs), found):
                whole[members] = part.reshape(len(members), -1)
        best = np.argmin(errs, axis=1)
        at = (np.arange(active.size), best)
        new = np.column_stack([i1[at], i2[at], best])
        accept = errs[at] <= res[active]
        moves = np.any(new != rows[:, [0, 1, p]], axis=1)
        moved = accept & moves
        if gaps is not None:
            second = np.partition(errs, 1)[:, 1]
            scale = np.abs(target[active]) + np.sum(np.abs(f), axis=1)
            for a, row in enumerate(active):
                if accept[a]:
                    gap = (second[a] - errs[at][a]) / scale[a]
                    gaps.append((t, row, "runner-up", gap))
                if moves[a]:
                    gap = abs(res[row] - errs[at][a]) / scale[a]
                    gaps.append((t, row, "incumbent", gap))
        idx[active[accept, None], [0, 1, p]] = new[accept]
        res[active[accept]] = errs[at][accept]
        t += 1
        unchanged[active] = np.where(moved, 0, unchanged[active] + 1)
        active = active[unchanged[active] < n_rf - 2]
    return idx, res, t


def _assert_pruning_changes_nothing(target, fbb, pset, init, owner=None):
    ref_idx, ref_res, ref_steps = _exhaustive_fs_row(
        target, fbb if owner is None else fbb[owner], pset, init)
    idx, res, steps = fs_row(target, fbb, pset, init, owner)
    assert idx.tobytes() == ref_idx.tobytes()
    assert res.tobytes() == ref_res.tobytes()
    assert steps == ref_steps


@_SETTINGS
@given(
    n_rf=st.integers(3, 5),
    bits=st.sampled_from([1, 2, 4, 6, 8]),
    rows=st.integers(1, 8),
    data=st.data(),
)
def test_pruned_fs_row_equals_exhaustive_on_random_rows(n_rf, bits, rows,
                                                        data):
    pset = phase_set(bits)
    fbb = _digital(data, n_rf)
    target = data.draw(arrays(complex, rows, elements=_complex))
    init = data.draw(arrays(np.int64, (rows, n_rf),
                            elements=st.integers(0, pset.size - 1)))
    _assert_pruning_changes_nothing(target, fbb, pset, init)


@_SETTINGS
@given(
    n_rf=st.integers(3, 5),
    bits=st.sampled_from([1, 2, 4, 6, 8]),
    rows=st.integers(1, 10),
    groups=st.integers(1, 3),
    data=st.data(),
)
def test_fs_row_with_per_row_fbb_equals_one_call_per_group(n_rf, bits, rows,
                                                           groups, data):
    # each row takes the digital vector of its group; the groups' rows are
    # interleaved, and two groups may share a vector
    pset = phase_set(bits)
    fbbs = _digital(data, (groups, n_rf))
    group = data.draw(arrays(np.int64, rows, elements=st.integers(0, groups - 1)))
    target = data.draw(arrays(complex, rows, elements=_complex))
    init = data.draw(arrays(np.int64, (rows, n_rf),
                            elements=st.integers(0, pset.size - 1)))
    idx, res, steps = fs_row(target, fbbs, pset, init, owner=group)
    group_steps = []
    for g in np.unique(group):
        mine = group == g
        i, e, t = fs_row(target[mine], fbbs[g], pset, init[mine])
        assert idx[mine].tobytes() == i.tobytes()
        assert res[mine].tobytes() == e.tobytes()
        group_steps.append(t)
    assert steps == max(group_steps)
    _assert_pruning_changes_nothing(target, fbbs, pset, init, group)


@_SETTINGS
@given(
    gamma=arrays(complex, st.integers(0, 30), elements=_complex),
    pairs=st.integers(1, 4),
    block=st.integers(1, 7),
    bits=st.integers(1, 6),
    data=st.data(),
)
def test_two_rf_kernel_with_row_constants_equals_one_pair_at_a_time(
        gamma, pairs, block, bits, data):
    # the kernel's rows of (f1, f2) constants, gathered per target and solved
    # in blocks of any size, give what one pair's constants give
    pset = phase_set(bits)
    f = data.draw(arrays(complex, (pairs, 2), elements=_complex))
    rows = data.draw(arrays(np.int64, gamma.size, elements=st.integers(0, pairs - 1)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(beamkit.practical, "_SOLVE_BLOCK", block)
        got = beamkit.practical._two_rf_solve(
            gamma, np.abs(gamma), beamkit.practical._two_rf_setup(f[:, 0], f[:, 1], pset),
            rows)
    for r in range(pairs):
        mine = rows == r
        want = _solve(gamma[mine], *f[r], pset)
        _assert_same_bits([a[mine] for a in got], want)


@_SETTINGS
@given(
    bits=st.integers(1, 10),
    kind=_PAIR_KINDS,
    data=st.data(),
)
def test_ring_bound_never_exceeds_the_kernels_residual(bits, kind, data):
    # fs_row's bound, less the margin, for random targets, for targets a few
    # ulps off a quantized pair (residual about 0) and for targets whose
    # modulus sits a few ulps off a bucket edge or a ring modulus
    pset = phase_set(bits)
    f1, f2 = data.draw(_complex), data.draw(_complex)
    if kind == "zero f1":
        f1 = 0j
    elif kind == "zero f2":
        f2 = 0j
    elif kind == "equal moduli":
        f2 = abs(f1) * np.exp(1j * data.draw(st.floats(-np.pi, np.pi)))
    table, scale, top = _ring_table(_two_rf_setup(f1, f2, pset), pset.size)
    assert table.shape == (_RING_BUCKETS,) and scale.shape == top.shape == (1,)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = rng.integers(0, pset.size, (2, 200))
    pairs = f1 * pset.phasors[m[0]] + f2 * pset.phasors[m[1]]
    turn = np.exp(1j * rng.uniform(-np.pi, np.pi, 400))
    ulps = 1.0 + rng.integers(-4, 5, 400) * np.finfo(float).eps
    edges = rng.integers(0, _RING_BUCKETS + 2, 200) / scale[0]
    gamma = np.concatenate([
        [1.0, 1j] @ rng.uniform(-1.5, 1.5, (2, 200)) * (abs(f1) + abs(f2) + 0.5),
        pairs * ulps[:200],
        np.concatenate([edges, np.abs(pairs)]) * ulps * turn,
    ])
    solved = _solve(gamma, f1, f2, pset)[2]
    alpha = np.abs(gamma)
    at = np.minimum(alpha * scale[0], _RING_BUCKETS - 1).astype(int)
    bound = np.maximum(table[at], alpha - top[0])
    assert np.all(bound - _BOUND_MARGIN * (alpha + abs(f1) + abs(f2)) <= solved)
    # every ring modulus lies in the pair's reach, the largest at its top
    assert (abs(abs(f1) - abs(f2)) * (1 - 1e-12) <= np.abs(pairs)).all()
    assert np.abs(pairs).max() <= top[0] * (1 + 1e-12) <= (abs(f1) + abs(f2)) * (1 + 2e-12)


def test_pruned_fs_row_equals_exhaustive_on_large_steps(monkeypatch):
    # 24 rows of 64 candidates, so a step solves hundreds of targets in one
    # kernel call.  Rows 0-7 start at an exact fit, with the first two
    # phasors of their digital vector 1000 times smaller than the rest:
    # every candidate but the incumbent's own value is pruned.
    pset = phase_set(6)
    rng = np.random.default_rng(25)
    fbb = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    fbb[1, :2] *= 1e-3
    owner = np.append(np.ones(8, dtype=int), rng.integers(0, 2, 16))
    init = rng.integers(0, pset.size, (24, 4))
    target = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    target[:8] = np.sum(fbb[1] * pset.phasors[init[:8]], axis=1)
    solved = []
    solve = beamkit.practical._two_rf_solve
    monkeypatch.setattr(beamkit.practical, "_two_rf_solve",
                        lambda gamma, *a: solved.append(gamma.size) or solve(gamma, *a))
    _assert_pruning_changes_nothing(target, fbb, pset, init, owner)
    assert max(solved) > 8 * pset.size
    assert solved[0] <= 16 * pset.size + 8
    _assert_pruning_changes_nothing(target, fbb[0], pset, init)


def test_fs_row_solves_every_candidate_where_the_ring_moduli_overflow(monkeypatch):
    # |f1| + |f2| past the float range leaves the ring table NaN; it then
    # bounds nothing, so every candidate is solved and the rows end as with
    # an infinite margin (where a NaN table once pruned them all, and
    # fs_row failed on a row that no solved candidate had won)
    pset = phase_set(2)
    rng = np.random.default_rng(27)
    fbb = np.array([1e308, 1e308j, 1.0, -1.0])
    target = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    init = rng.integers(0, 4, (4, 4))
    solved = []
    solve = beamkit.practical._two_rf_solve
    monkeypatch.setattr(beamkit.practical, "_two_rf_solve",
                        lambda gamma, *a: solved.append(gamma.size) or solve(gamma, *a))
    with np.errstate(all="ignore"):
        got = fs_row(target, fbb, pset, init)
        pruned, solved[:] = solved[:], []
        monkeypatch.setattr(beamkit.practical, "_BOUND_MARGIN", np.inf)
        want = fs_row(target, fbb, pset, init)
    assert pruned == solved and solved[0] == 4 * pset.size
    _assert_same_bits(got[:2], want[:2])
    assert got[2] == want[2]


def test_fs_row_keeps_rows_whose_every_candidate_is_pruned(monkeypatch):
    # the incumbent's own value is never pruned, so only a margin below
    # every bound prunes whole rows: no candidate is solved, no row moves,
    # and every row stops after n_rf - 2 unchanged steps
    monkeypatch.setattr(beamkit.practical, "_BOUND_MARGIN", -np.inf)
    pset = phase_set(4)
    rng = np.random.default_rng(26)
    fbb = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    owner = rng.integers(0, 2, 12)
    init = rng.integers(0, pset.size, (12, 5))
    target = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    for f, o in ((fbb, owner), (fbb[0], None)):
        start = target - np.sum((f if o is None else f[o]) * pset.phasors[init], axis=1)
        idx, res, steps = fs_row(target, f, pset, init, o)
        assert idx.tobytes() == init.tobytes() and steps == 3
        assert res.tobytes() == np.hypot(start.real, start.imag).tobytes()


@pytest.mark.parametrize("bits,n_rf", itertools.product((1, 2), (3, 4)))
def test_pruned_fs_row_equals_exhaustive_on_tie_rows(bits, n_rf):
    # the golden ledger's tie runs: exactly representable targets and equal
    # digital entries, so the winner and the incumbent often tie at a
    # residual of 0, which is also the bound of many candidates
    pset = phase_set(bits)
    rng = np.random.default_rng([bits, n_rf])
    fbb = np.ones(n_rf, dtype=complex)
    exact = rng.integers(0, pset.size, (16, n_rf))
    target = np.sum(fbb * pset.phasors[exact], axis=1)
    init = rng.integers(0, pset.size, (16, n_rf))
    _assert_pruning_changes_nothing(target, fbb, pset, init)


@_SETTINGS
@given(
    n_rf=st.integers(3, 5),
    bits=st.sampled_from([1, 2, 4, 6]),
    rows=st.integers(1, 6),
    edge=st.sampled_from(["zero", "outer", "inner"]),
    ulps=st.integers(-4, 4),
    data=st.data(),
)
def test_pruned_fs_row_equals_exhaustive_at_the_bound_edges(n_rf, bits, rows,
                                                            edge, ulps, data):
    # f1 and f2 share a direction (outer edge, |gamma| = |f1| + |f2|) or
    # point opposite ways (inner edge, |gamma| = ||f1| - |f2||; with equal
    # moduli |gamma| = 0), and each target is reached, to a few ulps, by
    # phases 0 and 1 at one shared phase-set member, so the rows' residuals
    # and the bounds of their candidates approach those edges together.
    # Rows that start at that member keep a residual of a few ulps, within
    # rounding of the winner's bound: a rule without a margin fails here.
    pset = phase_set(bits)
    mags = st.floats(0.25, 4.0)
    z1 = data.draw(mags)
    z2 = z1 if edge == "zero" else data.draw(mags)
    direction = np.exp(1j * data.draw(st.floats(-np.pi, np.pi)))
    sign = 1.0 if edge == "outer" else -1.0
    fbb = np.concatenate([[z1 * direction, sign * z2 * direction],
                          data.draw(arrays(complex, n_rf - 2,
                                           elements=_complex))])
    exact = data.draw(arrays(np.int64, (rows, n_rf),
                             elements=st.integers(0, pset.size - 1)))
    exact[:, 1] = exact[:, 0]
    target = np.sum(fbb * pset.phasors[exact], axis=1)
    target = target * (1.0 + ulps * np.finfo(float).eps) + ulps * 1e-16
    init = data.draw(arrays(np.int64, (rows, n_rf),
                            elements=st.integers(0, pset.size - 1)))
    at_member = data.draw(arrays(bool, rows))
    init[at_member] = exact[at_member]
    _assert_pruning_changes_nothing(target, fbb, pset, init)


@_SETTINGS
@given(
    n=st.integers(2, 8),
    entries=st.integers(1, 4),
    n_rf=st.integers(1, 5),
    bits=st.sampled_from([1, 2, 6]),
    t_max=st.integers(0, 3),
    data=st.data(),
)
def test_stacked_fs_altmin_equals_one_call_per_entry(n, entries, n_rf, bits,
                                                     t_max, data):
    n_rf = min(n_rf, n)
    v = data.draw(arrays(complex, (entries, n), elements=_complex).filter(
        lambda v: np.all(np.linalg.norm(v, axis=1) > 1e-3)))
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=entries,
                               max_size=entries))
    one = []
    for e, (row, seed) in enumerate(zip(v, seeds)):
        try:
            one.append(fs_altmin(row, n_rf, bits, t_max=t_max, seed=seed))
        except SynthesisError:  # the stack fails at its first such entry
            with pytest.raises(SynthesisError, match=f"codeword {e} collapsed") as err:
                fs_altmin(v, n_rf, bits, t_max=t_max, seed=seeds)
            assert err.value.entry == e
            return
    stacked = fs_altmin(v, n_rf, bits, t_max=t_max, seed=seeds)
    assert len(stacked) == entries
    for got, want in zip(stacked, one):
        assert got.bits == want.bits
        for name in ("phase_indices", "digital", "realized"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@_SETTINGS
@given(
    entries=st.integers(1, 30),
    n_rf=st.integers(2, 5),
    bits=st.integers(1, 6),
    extra=st.integers(0, 30),
    share=st.sampled_from([0.0, 0.2, 0.5]),
    kind=st.sampled_from(["duplicated", "near", "scaled"]),
    scale=st.sampled_from([1e-9, 1e-6, 1e-3, 1e-1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_least_squares_equals_one_ls_fbb_per_entry(entries, n_rf, bits, extra,
                                                            share, kind, scale, seed):
    # random analog matrices as fs_altmin gathers them, about a share of
    # them near-singular (and, at few antennas and bits, some by chance):
    # one column copied onto another, or copied and moved by a phase of
    # the given scale, or the columns scaled apart by it.  The moved and
    # scaled ones give Grams on both sides of ls_fbb's cond > 1e12 test
    # (at scale 1e-6, within a few times of it).  Exactly the entries whose
    # own ls_fbb call warns go through ls_fbb in the stacked solve, in
    # order, and every row is the same bit for bit
    pset = phase_set(bits)
    n = n_rf + extra
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, pset.size, (entries, n, n_rf))
    picked = rng.random(entries) < share
    analog = pset.phasors[idx]
    if kind == "scaled":
        analog[picked] *= scale ** (np.arange(n_rf) / (n_rf - 1))
    else:
        analog[picked, :, -1] = analog[picked, :, 0]
        if kind == "near":
            moves = scale * rng.standard_normal((np.count_nonzero(picked), n))
            analog[picked, :, -1] *= np.exp(1j * moves)
    v = rng.standard_normal((entries, n)) + 1j * rng.standard_normal((entries, n))
    want, warned = [], []
    for a, row in zip(analog, v):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            want.append(beamkit.practical.ls_fbb(a, row))
        warned.append(len(caught) == 1)
    if kind == "duplicated":
        assert all(warned[e] for e in np.flatnonzero(picked))
    fallbacks = []
    real = beamkit.practical.ls_fbb
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mp.setattr(beamkit.practical, "ls_fbb",
                   lambda a, row: fallbacks.append((a, row)) or real(a, row))
        got = beamkit.practical._ls_stack(analog, v)
    flagged = np.flatnonzero(warned)
    assert len(caught) == len(fallbacks) == len(flagged)
    assert all("pseudo-inverse" in str(w.message) for w in caught)
    for (a, row), e in zip(fallbacks, flagged):
        assert a.tobytes() == analog[e].tobytes() and row.tobytes() == v[e].tobytes()
    assert got.shape == (entries, n_rf) and got.dtype == complex
    for e in range(entries):
        assert got[e].tobytes() == want[e].tobytes(), e


def test_wrap_phase_equals_numpy_remainder_bit_for_bit():
    multiples = np.arange(-4, 5) * np.pi
    theta = np.concatenate([
        np.random.default_rng(21).uniform(-4 * np.pi, 4 * np.pi, 200_000),
        multiples, np.nextafter(multiples, -np.inf), np.nextafter(multiples, np.inf),
        [0.0, -0.0]])
    want = (theta + np.pi) % (2 * np.pi) - np.pi
    _assert_same_bits([wrap_phase(theta)], [want])
    for t, w in zip(theta[-29:], want[-29:]):  # 0-d in, a numpy scalar out
        for x in (t, float(t), np.array(t)):
            got = wrap_phase(x)
            assert type(got) is np.float64 and got.tobytes() == w.tobytes()


def test_two_rf_kernel_scratch_leaks_nothing_between_calls():
    # each thread reuses its kernel buffers: a call must equal the same call
    # on buffers never used before (a new thread's), whatever sizes came
    # first, including blocks shorter than the last one and a split block
    rng = np.random.default_rng(7)
    pset = phase_set(6)
    f = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    calls = []
    for m in (1500, 3, 1024, 1):
        gamma = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        calls += [(gamma, _two_rf_setup(f[0, 0], f[1, 0], pset), None),
                  (gamma, _two_rf_setup(f[0], f[1], pset), rng.integers(0, 3, m))]

    def solve(gamma, setup, rows):
        return _two_rf_solve(gamma, np.abs(gamma), setup, rows)

    in_turn = [solve(*c) for c in calls]  # later calls overwrite the buffers
    for c, got in zip(calls, in_turn):
        fresh = []
        thread = threading.Thread(target=lambda: fresh.append(solve(*c)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        _assert_same_bits(got, fresh[0])


def test_fs_row_scratch_leaks_nothing_between_calls():
    # each thread reuses fs_row's per-step buffers, grown to the widest step:
    # a call must equal the same call on a new thread's buffers, after wider
    # and narrower steps, other phase-set sizes, and with or without owner
    rng = np.random.default_rng(8)
    calls = []
    for rows, n_rf, bits, groups in ((40, 4, 6, 3), (5, 3, 4, 1), (40, 5, 2, 2), (1, 3, 6, 1)):
        target = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
        fbb = rng.standard_normal((groups, n_rf)) + 1j * rng.standard_normal((groups, n_rf))
        init = rng.integers(0, 2**bits, (rows, n_rf))
        owner = rng.integers(0, groups, rows) if groups > 1 else None
        calls.append((target, fbb if owner is not None else fbb[0], phase_set(bits), init,
                      owner))

    in_turn = [fs_row(*c) for c in calls]  # later calls overwrite the buffers
    for c, got in zip(calls, in_turn):
        fresh = []
        thread = threading.Thread(target=lambda: fresh.append(fs_row(*c)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        _assert_same_bits(got[:2], fresh[0][:2])
        assert got[2] == fresh[0][2]


def test_threads_designing_stacks_at_once_equal_serial_runs():
    # more threads than a 2-core machine has cores, switching often: kernel
    # buffers shared between threads would mix their candidates
    rng = np.random.default_rng(9)
    jobs = [(rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16)), n_rf, b)
            for n_rf, b in ((3, 6), (4, 4), (2, 6))]

    def design(job):
        v, n_rf, b = job
        return fs_altmin(v, n_rf, b, t_max=4, seed=range(len(v)))

    serial = [design(job) for job in jobs]
    start = threading.Barrier(len(jobs))
    threaded = [None] * len(jobs)

    def run(i):
        start.wait()
        threaded[i] = design(jobs[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(threaded, serial):
        for g, w in zip(got, want, strict=True):
            _assert_same_bits([g.phase_indices, g.digital], [w.phase_indices, w.digital])


def test_threads_running_wide_row_searches_at_once_equal_serial_runs():
    # fs_row's per-step buffers shared between threads would mix their rows'
    # candidates; these steps are up to 256 rows x 64 candidates wide
    rng = np.random.default_rng(9)
    jobs = [(rng.standard_normal((8, 32)) + 1j * rng.standard_normal((8, 32)), n_rf)
            for n_rf in (3, 4, 5)]
    serial = [fs_altmin(v, n_rf, 6, t_max=4, seed=range(8)) for v, n_rf in jobs]
    start, threaded = threading.Barrier(len(jobs)), [None] * len(jobs)

    def run(i):
        start.wait()
        v, n_rf = jobs[i]
        threaded[i] = fs_altmin(v, n_rf, 6, t_max=4, seed=range(8))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(threaded, serial):
        for g, w in zip(got, want, strict=True):
            _assert_same_bits([g.phase_indices, g.digital], [w.phase_indices, w.digital])


@pytest.mark.parametrize("n,k,r_max", [(8, 32, 100), (16, 128, 300), (8, 8, 20),
                                       (4, 16, 37)])
def test_ps_icd_updates_only_live_directions(monkeypatch, n, k, r_max):
    # a zero-magnitude direction keeps its phase, so skipping its updates
    # leaves the codeword as the full cyclic loop makes it
    target = make_target("rect", (-0.5, 0.25))
    sm = steering_matrix(n, k)
    mags = target(sm.grid)
    opt = PhaseOptimizer(sm.gram(), mags, np.random.default_rng(3).uniform(-np.pi, np.pi, k))
    for i in range(r_max):
        opt.update(i % k)
    want = _assemble(sm.matrix, opt.gains, k)
    order = []
    update = PhaseOptimizer.update

    def recorded(self, j):
        order.append(j)
        return update(self, j)

    monkeypatch.setattr(PhaseOptimizer, "update", recorded)
    assert ps_icd(target, n, k, r_max, 3).tobytes() == want.tobytes()
    assert order == [i % k for i in range(r_max) if mags[i % k] > 0]


@st.composite
def _targets(draw, k):
    """A rect, triangular or step target on a grid of k directions, or a step
    with a zero plateau."""
    kind = draw(st.sampled_from(["rect", "triangular", "step", "zero-step"]))
    width = draw(st.sampled_from([3, 1, 8, k])) * 2.0 / k  # in grid steps
    lo = draw(st.floats(-1.0, 1.0 - min(width, 1.0)))
    hi = min(lo + width, 1.0)
    if kind == "zero-step":
        return make_target("step", (lo, hi), heights=(0.0, 1.0),
                           split=draw(st.floats(0.1, 0.9)))
    return make_target(kind, (lo, hi))


@_SETTINGS
@given(
    n=st.integers(2, 12),
    oversample=st.integers(1, 3),
    extra=st.sampled_from([0, 0, 1, 5]),
    entries=st.integers(1, 30),
    data=st.data(),
)
def test_stacked_ps_icd_equals_one_call_per_entry(n, oversample, extra, entries, data):
    # K = N (the degenerate grid) and K > N; r_max 0, below K and above it;
    # duplicate seeds and targets; stacks on both sides of the hand-off to
    # PhaseOptimizer.update
    k = n * oversample + extra
    r_max = data.draw(st.sampled_from([0, k // 2, k, 3 * k + 1, 8 * k]))
    pool = data.draw(st.lists(_targets(k), min_size=1, max_size=4))
    targets = [pool[e % len(pool)] for e in range(entries)]
    vanishing = data.draw(st.sampled_from([None, None, None, 0, entries // 2, entries - 1]))
    if vanishing is not None:  # a coverage that holds no grid direction
        targets[vanishing] = make_target("rect", (-1.0, -1.0 + 0.5 / k))
    seeds = data.draw(st.lists(st.one_of(st.integers(0, 2), st.integers(0, 2**32 - 1)),
                               min_size=entries, max_size=entries))
    one = []
    for e, (target, seed) in enumerate(zip(targets, seeds)):
        try:
            one.append(ps_icd(target, n, k, r_max, seed))
        except SynthesisError:  # the stack fails at its first such entry
            with pytest.raises(SynthesisError, match=f"target {e} magnitudes") as err:
                ps_icd(targets, n, k, r_max, seeds)
            assert err.value.entry == e
            return
    stacked = ps_icd(targets, n, k, r_max, seeds)
    assert stacked.shape == (entries, n) and stacked.dtype == complex
    for got, want in zip(stacked, one):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, k", [(8, 8), (16, 16), (8, 32), (16, 128)])
def test_stacked_ps_icd_steps_together_then_hands_off(monkeypatch, n, k):
    # a codebook's 2 + 4 + 8 tiles, with a duplicated seed: the stack takes
    # some updates together and leaves the rest to PhaseOptimizer.update,
    # and at K = N no update moves a phase
    tiles = [(-1.0 + i * w, -1.0 + (i + 1) * w) for w in (1.0, 0.5, 0.25)
             for i in range(round(2 / w))]
    targets = [make_target("rect", tile) for tile in tiles]
    seeds = [7, 7, *range(2, len(tiles))]
    r_max = 10 * k + 3
    want = [ps_icd(t, n, k, r_max, seed) for t, seed in zip(targets, seeds)]
    calls = []
    update = PhaseOptimizer.update
    monkeypatch.setattr(PhaseOptimizer, "update",
                        lambda self, j: calls.append(j) or update(self, j))
    got = ps_icd(targets, n, k, r_max, seeds)
    live = sum(np.count_nonzero(t(steering_matrix(n, k).grid)) for t in targets)
    assert 0 < len(calls) < live * (r_max // k)
    for row, one in zip(got, want):
        assert row.tobytes() == one.tobytes()


@_SETTINGS
@given(
    v=arrays(complex, st.integers(2, 10), elements=_complex).filter(
        lambda v: np.linalg.norm(v) > 1e-3),
    n_rf=st.integers(1, 4),
    bits=st.integers(1, 6),
    t_max=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_fs_altmin_output_is_finite_unit_norm_and_quantized(v, n_rf, bits,
                                                            t_max, seed):
    n_rf = min(n_rf, v.size)
    trace = []
    try:
        h = fs_altmin(v, n_rf, bits, t_max=t_max, seed=seed, trace=trace)
    except SynthesisError:
        return  # the one permitted failure: a loud error, never NaN output
    assert np.all(np.diff(trace) <= 1e-12)  # the fitting residual never grows
    realized = h.realized
    assert np.all(np.isfinite(h.digital)) and np.all(np.isfinite(realized))
    assert abs(np.linalg.norm(realized) - 1.0) <= 1e-9
    assert h.phase_indices.shape == (v.size, n_rf)
    assert np.all((h.phase_indices >= 0) & (h.phase_indices < 2**bits))


@st.composite
def _hybrids(draw):
    n, n_rf, bits = (draw(st.integers(1, 8)), draw(st.integers(1, 4)),
                     draw(st.integers(1, 16)))
    idx = draw(arrays(np.int64, (n, n_rf), elements=st.integers(0, 2**bits - 1)))
    parts = st.floats(allow_nan=False, allow_infinity=False)
    digital = draw(arrays(complex, n_rf, elements=st.builds(complex, parts, parts)))
    # huge digital weights overflow the realized codeword built at construction
    with np.errstate(over="ignore", invalid="ignore"):
        return HybridCodeword(idx, bits, digital)


@_SETTINGS
@given(h=_hybrids())
def test_hybrid_dict_round_trip_is_bit_exact(h):
    with tempfile.TemporaryDirectory() as d, \
            np.errstate(over="ignore", invalid="ignore"):
        path = os.path.join(d, "h.json")
        save_hybrid(h, path)
        back = load_hybrid(path)
    assert back.bits == h.bits
    assert back.phase_indices.tobytes() == h.phase_indices.tobytes()
    assert back.digital.dtype == h.digital.dtype
    assert back.digital.tobytes() == h.digital.tobytes()


@_SETTINGS
@given(h=_hybrids())
def test_hybrid_codeword_is_immutable_and_realized_once(h):
    indices, digital = h.phase_indices.copy(), h.digital.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # huge digital weights
        h = HybridCodeword(indices, h.bits, digital)
        expect = phase_set(h.bits).phasors[indices] @ digital
    indices[...] = 0  # the codeword holds copies of what it was given
    digital[...] = 1.0
    realized = h.realized
    assert realized.tobytes() == expect.tobytes()
    assert h.realized is realized
    for array in (realized, h.phase_indices, h.digital):
        with pytest.raises(ValueError):
            array[0] = 0
    for name in ("phase_indices", "digital", "bits"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(h, name, None)
    with tempfile.TemporaryDirectory() as d, \
            np.errstate(over="ignore", invalid="ignore"):
        path = os.path.join(d, "h.json")
        save_hybrid(h, path)
        back = load_hybrid(path)
    assert back.realized.tobytes() == realized.tobytes()


def test_array_holding_records_compare_and_hash_by_identity():
    # a generated __eq__ compares array fields and raises for n > 1
    h = HybridCodeword(np.zeros((2, 2), dtype=int), 2, np.ones(2, dtype=complex))
    cb = build_codebook(4, k=8, r_max=10, seed=0)
    ch = draw_channel(4, 2, 2, seed=0)
    pairs = (
        (h, HybridCodeword(h.phase_indices, h.bits, h.digital)),
        (phase_set(2), phase_set(3)),
        (cb.layers[0][0], cb.layers[0][1]),
        (cb, build_codebook(4, k=8, r_max=10, seed=0)),
        (ch, Channel(ch.n_t, ch.n_r, ch.gains, ch.aod, ch.aoa)),
    )
    for a, b in pairs:
        assert a == a and a != b  # equal contents, distinct objects
        assert len({a, a, b}) == 2


@pytest.mark.parametrize("bits", range(1, 17))
def test_phase_set_is_cached_and_its_phasor_table_is_exact(bits):
    pset = phase_set(bits)
    assert phase_set(bits) is pset
    rng = np.random.default_rng(bits)
    j = rng.integers(0, pset.size, (3, pset.size))
    assert pset.phasors[j].tobytes() == np.exp(1j * pset.values[j]).tobytes()
    for m in rng.integers(0, pset.size, 64):
        assert pset.phasors[m] == np.exp(1j * pset.values[m])
    for table in (pset.values, pset.phasors):
        with pytest.raises(ValueError):
            table[0] = 0.0


def _objective(opt):
    g = opt.gains
    return float(np.real(g.conj() @ opt.gram @ g))


@_SETTINGS
@given(
    n=st.integers(2, 8),
    oversample=st.integers(1, 4),
    data=st.data(),
)
def test_phase_updates_keep_running_gains_exact_and_never_lose(n, oversample,
                                                               data):
    k = n * oversample
    mags = data.draw(arrays(float, k, elements=st.one_of(
        st.just(0.0), st.floats(0.0, 2.0))))
    phases = data.draw(arrays(float, k, elements=st.floats(-np.pi, np.pi)))
    order = data.draw(st.lists(st.integers(0, k - 1), max_size=3 * k))
    opt = PhaseOptimizer(steering_matrix(n, k).gram(), mags, phases)
    prev = _objective(opt)
    for i in order:
        opt.update(i)
        assert opt.gains.tobytes() == (
            opt.magnitudes * np.exp(1j * opt.phases)).tobytes()
        cur = _objective(opt)
        assert cur >= prev - 1e-12 * max(1.0, abs(prev))
        prev = cur


class _ReferencePhaseOptimizer:
    """PhaseOptimizer's update as it was before it kept per-k lists and
    called arctan2 directly: the reference the optimizer must equal bit for
    bit, phase by phase."""

    def __init__(self, gram, magnitudes, phases):
        self.gram = np.asarray(gram, dtype=complex)
        self.magnitudes = np.asarray(magnitudes, dtype=float)
        self.phases = np.array(phases, dtype=float)
        self.degenerate = (_DEGENERATE_RTOL * np.linalg.norm(self.gram, axis=1)
                           * np.linalg.norm(self.magnitudes))
        self.gains = self.magnitudes * np.exp(1j * self.phases)

    def update(self, k):
        phases = self.phases
        if self.magnitudes[k] == 0.0:
            return phases[k]
        g = self.gains
        c = complex(self.gram[k] @ g - self.gram[k, k] * g[k])
        if abs(c) <= self.degenerate[k]:
            return phases[k]
        phases[k] = np.angle(c)
        g[k] = self.magnitudes[k] * np.exp(1j * phases[k])
        return phases[k]


def _assert_updates_match_reference(gram, mags, phases, order):
    """Run the same updates on PhaseOptimizer and the reference, requiring
    equal bits after each; returns how many updates moved a phase."""
    opt = PhaseOptimizer(gram, mags, phases)
    ref = _ReferencePhaseOptimizer(gram, mags, phases)
    moved = 0
    for k in order:
        before = ref.phases[k]
        got, expected = opt.update(k), ref.update(k)
        assert type(got) is type(expected)
        assert np.array(got).tobytes() == np.array(expected).tobytes()
        assert opt.phases.tobytes() == ref.phases.tobytes()
        assert opt.gains.tobytes() == ref.gains.tobytes()
        moved += bool(expected != before)
    return moved


@_SETTINGS
@given(
    n=st.integers(2, 8),
    oversample=st.integers(1, 4),
    data=st.data(),
)
def test_phase_updates_equal_reference(n, oversample, data):
    k = n * oversample
    mags = data.draw(arrays(float, k, elements=st.one_of(
        st.just(0.0), st.floats(0.0, 2.0))))
    phases = data.draw(arrays(float, k, elements=st.floats(-np.pi, np.pi)))
    order = data.draw(st.lists(st.integers(0, k - 1), max_size=4 * k))
    _assert_updates_match_reference(steering_matrix(n, k).gram(), mags, phases,
                                     order)


@pytest.mark.parametrize("n,k", [(8, 8), (16, 16), (8, 32), (16, 64)])
def test_cyclic_phase_updates_equal_reference(n, k):
    # ps_icd's order over a rect target (zero magnitudes outside it); at
    # K = N every cross term is roundoff, so no update moves a phase
    sm = steering_matrix(n, k)
    mags = make_target("rect", (-0.75, 0.0))(sm.grid)
    phases = np.random.default_rng(k).uniform(-np.pi, np.pi, k)
    moved = _assert_updates_match_reference(sm.gram(), mags, phases,
                                            [i % k for i in range(4 * k)])
    assert (moved == 0) == (k == n)


@_SETTINGS
@given(
    n=st.integers(2, 16),
    oversample=st.integers(1, 4),
    lo=st.floats(-1.0, 0.9),
    width=st.floats(0.01, 2.0),
    r_max=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_ideal_designs_are_finite_and_unit_norm(n, oversample, lo, width,
                                                r_max, seed):
    target = make_target("rect", (lo, min(lo + width, 1.0)))
    k = n * oversample
    try:
        designs = [ps_icd(target, n, k, r_max, seed), ls_icd(target, n, k)]
    except SynthesisError:
        return  # no grid direction inside the coverage: a loud error
    for v in designs:
        assert v.shape == (n,) and np.all(np.isfinite(v))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


# The simulator's per-trial kernels against their plain numpy forms: a
# channel's matrix and draw, a noisy measurement and the exhaustive best
# pair give the same bytes as these.

def _reference_channel_matrix(n_t, n_r, gains, aod, aoa):
    ar = np.exp(1j * np.pi * (np.arange(n_r)[:, None] * aoa))
    at = np.exp(1j * np.pi * (np.arange(n_t)[:, None] * aod))
    return (ar * gains) @ at.conj().T / np.sqrt(gains.size)


def _reference_draw_channel(n_t, n_r, l, seed):
    """(gains, aod, aoa, matrix) of draw_channel(n_t, n_r, l, seed)."""
    rng = np.random.default_rng(seed)
    gains = (rng.standard_normal(l) + 1j * rng.standard_normal(l)) / np.sqrt(2)
    aod, aoa = rng.uniform(-1, 1, l), rng.uniform(-1, 1, l)
    return gains, aod, aoa, _reference_channel_matrix(n_t, n_r, gains, aod, aoa)


def _reference_measure(v, w, h, snr_db, rng):
    p, sigma = {np.inf: (1.0, 0.0), -np.inf: (0.0, 1.0)}.get(
        snr_db, (10.0 ** (snr_db / 10.0), 1.0))
    n_r = h.shape[0]
    w_h = np.asarray(w, dtype=complex).conj()
    z = rng.standard_normal(2 * n_r)
    eta = (z[:n_r] + 1j * z[n_r:]) * sigma / np.sqrt(2)
    y = np.sqrt(p) * (w_h @ h @ np.asarray(v, dtype=complex))
    y += w_h @ eta
    return float(np.abs(y) ** 2)


def _reference_best_pair(tx_words, rx_words, h):
    """(tx, rx, scores): the first largest |w^H H v| in row-major (rx, tx)
    order, and the (rx, tx) scores."""
    v, w = np.column_stack(tx_words), np.column_stack(rx_words)
    scores = np.abs(w.conj().T @ h @ v)
    ri, ti = divmod(int(np.argmax(scores)), scores.shape[1])
    return ti, ri, scores


def _codewords(rng, n, count, zeros, layout):
    """count random complex codewords of length n.  With zeros, about a
    third of the entries are 0, the first word is all 0 and the last equals
    the second.  layout is writable, read-only or strided (a view of every
    other entry of a longer array)."""
    step = 2 if layout == "strided" else 1
    shape = (count, step * n)
    words = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if zeros:
        words[rng.random(words.shape) < 1 / 3] = 0.0
        words[0] = 0.0
        words[-1] = words[min(1, count - 1)]
    if layout == "read-only":
        words.setflags(write=False)
    return [word[::step] for word in words]


_SIZES = st.integers(4, 64)
_LAYOUTS = st.sampled_from(["writable", "read-only", "strided"])
_SEEDS = st.integers(0, 2**32 - 1)


@_SETTINGS
@given(n_t=_SIZES, n_r=_SIZES, l=st.integers(1, 4), seed=_SEEDS,
       zeros=st.booleans())
def test_channel_matrix_and_draw_equal_reference(n_t, n_r, l, seed, zeros):
    rng = np.random.default_rng(seed)
    gains = rng.standard_normal(l) + 1j * rng.standard_normal(l)
    aod, aoa = rng.uniform(-1, 1, (2, l))
    if zeros:
        gains[0], aod[-1], aoa[-1] = 0.0, 0.0, -1.0
    _assert_same_bits([Channel(n_t, n_r, gains, aod, aoa).matrix],
                      [_reference_channel_matrix(n_t, n_r, gains, aod, aoa)])
    ch = draw_channel(n_t, n_r, l, seed)
    _assert_same_bits([ch.gains, ch.aod, ch.aoa, ch.matrix],
                      _reference_draw_channel(n_t, n_r, l, seed))


@_SETTINGS
@given(n_t=_SIZES, n_r=_SIZES, l=st.integers(1, 4), seed=_SEEDS,
       snr_db=st.floats(-30.0, 30.0), zeros=st.booleans(), layout=_LAYOUTS)
def test_measure_equals_reference(n_t, n_r, l, seed, snr_db, zeros, layout):
    ch = draw_channel(n_t, n_r, l, seed)
    rng = np.random.default_rng([seed, 1])
    vs = _codewords(rng, n_t, 3, zeros, layout)
    ws = _codewords(rng, n_r, 3, zeros, layout)
    for snr in (snr_db, np.inf, -np.inf):
        got_rng, want_rng = (np.random.default_rng([seed, 2]) for _ in range(2))
        got = [measure(v, w, ch, snr, got_rng) for v in vs for w in ws]
        want = [_reference_measure(v, w, ch.matrix, snr, want_rng)
                for v in vs for w in ws]
        _assert_same_bits([np.array(got)], [np.array(want)])
        # one draw of 2 N_r normals per measurement
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def _flat_codebook(rng, n, zeros, layout):
    """A hierarchical codebook (M = 2) of random codewords."""
    layers = []
    for s in range(1, int(np.log2(n)) + 1):
        words = _codewords(rng, n, 2**s, zeros, layout)
        width = 2.0 / 2**s
        layers.append([CodebookEntry((-1.0 + i * width, -1.0 + (i + 1) * width), u)
                       for i, u in enumerate(words)])
    return HierarchicalCodebook(n, 2, 0, layers)


@_SETTINGS
@given(s_t=st.integers(2, 6), s_r=st.integers(2, 6), l=st.integers(1, 4),
       seed=_SEEDS, zeros=st.booleans(), layout=_LAYOUTS)
def test_exhaustive_best_pair_equals_reference(s_t, s_r, l, seed, zeros,
                                               layout):
    n_t, n_r = 2**max(s_t, s_r), 2**min(s_t, s_r)
    rng = np.random.default_rng([seed, 3])
    tx = _flat_codebook(rng, n_t, zeros, layout)
    rx = _flat_codebook(rng, n_r, zeros, layout)
    for k in range(3):
        ch = draw_channel(n_t, n_r, l, [seed, k])
        want = _reference_best_pair([e.ideal for e in tx.bottom],
                                    [e.ideal for e in rx.bottom], ch.matrix)
        assert exhaustive_best_pair(tx, rx, ch) == want[:2]


def _reference_search(tx, rx, h, snr_db, rng):
    """(tx, rx, count) of the hierarchical descent over the ideal codewords,
    each measurement drawing its own normals from rng."""
    m = tx.m
    ti = ri = count = 0
    for s, tx_layer in enumerate(tx.layers):
        if s < len(rx.layers):
            rx_layer, rx_children = rx.layers[s], range(m * ri, m * ri + m)
        else:
            rx_layer, rx_children = rx.layers[-1], [ri]
        best = None
        for a in range(m * ti, m * ti + m):
            for b in rx_children:
                power = _reference_measure(tx_layer[a].ideal, rx_layer[b].ideal, h,
                                           snr_db, rng)
                count += 1
                if best is None or power > best:
                    best, selected = power, (a, b)
        ti, ri = selected
    return ti, ri, count


@_SETTINGS
@given(s_t=st.integers(1, 5), s_r=st.integers(1, 5), l=st.integers(1, 4),
       seed=_SEEDS, snr_db=st.floats(-30.0, 30.0), zeros=st.booleans(),
       layout=_LAYOUTS)
def test_hierarchical_search_equals_reference_descent(s_t, s_r, l, seed, snr_db,
                                                      zeros, layout):
    # one noise draw per descent, read a measurement at a time, gives the
    # selections and the generator state of one draw per measurement
    n_t, n_r = 2**max(s_t, s_r), 2**min(s_t, s_r)
    rng = np.random.default_rng([seed, 4])
    tx = _flat_codebook(rng, n_t, zeros, layout)
    rx = _flat_codebook(rng, n_r, zeros, layout)
    ch = draw_channel(n_t, n_r, l, [seed, 5])
    for snr in (snr_db, np.inf, -np.inf):
        got_rng, want_rng = (np.random.default_rng([seed, 6]) for _ in range(2))
        got = hierarchical_search(tx, rx, ch, snr, got_rng)
        assert got == _reference_search(tx, rx, ch.matrix, snr, want_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@_SETTINGS
@given(seed=_SEEDS, trials=st.integers(1, 12), l=st.integers(1, 3),
       snr_db=st.sampled_from([-10.0, 0.0, 10.0, np.inf, -np.inf]),
       zeros=st.booleans())
def test_success_rate_records_equal_reference(seed, trials, l, snr_db, zeros):
    # trial t's streams by spawn key are the children of child t of the
    # master seed's spawn
    rng = np.random.default_rng([seed, 7])
    tx, rx = _flat_codebook(rng, 16, zeros, "writable"), _flat_codebook(rng, 8, zeros, "writable")
    out = success_rate(TrainingConfig(tx, rx, snr_db, trials, seed=seed, paths=l))
    want = []
    for t, stream in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        ch_ss, noise_ss = stream.spawn(2)
        h = _reference_draw_channel(16, 8, l, ch_ss)[3]
        ti, ri, count = _reference_search(tx, rx, h, snr_db, np.random.default_rng(noise_ss))
        bt, br, _ = _reference_best_pair([e.ideal for e in tx.bottom],
                                         [e.ideal for e in rx.bottom], h)
        want.append({"trial": t, "selected": [ti, ri], "best": [bt, br],
                     "success": ti == bt and ri == br, "measurements": count})
    assert out["records"] == want
    assert out["successes"] == sum(r["success"] for r in want)

"""Multipath channel generation and hierarchical beam-training simulation.

The channel is a sum of L rank-one steering outer products with complex
Gaussian path gains (Saleh-Valenzuela form).  Beam training descends a
pair of hierarchical codebooks using noisy power measurements only; a
trial succeeds when the selected bottom-layer pair coincides with the
noiseless exhaustive optimum over bottom-layer pairs.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .arrays import _count, _finite
from .codebook import HierarchicalCodebook

__all__ = [
    "Channel",
    "draw_channel",
    "measure",
    "hierarchical_search",
    "exhaustive_best_pair",
    "TrainingConfig",
    "success_rate",
]


# numpy's SeedSequence hashing (numpy/random/bit_generator.pyx): the pool
# size, the hashmix and generate_state constants, the mix multipliers and
# the xorshift, all on uint32 words
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
# trials whose seed words success_rate computes at once, 64 B of words each
_SEED_BLOCK = 4096

# the per-component scale of unit-variance circular complex Gaussians.  A
# real draw times it is bit for bit the draw's complex array divided by
# sqrt(2) + 0j: numpy's complex division multiplies by 1 / the real divisor.
# A 0-d array, so a product skips a scalar cast on every call.
_RSQRT2 = np.array(1.0 / math.sqrt(2.0))
_RSQRT2.setflags(write=False)
# that scale at snr_db = +inf, where the noise std is 0: 0 * _RSQRT2
_NOISELESS = np.array(0.0)
_NOISELESS.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Channel:
    """Multipath MIMO channel built from its L paths; immutable.

    gains (complex), aod and aoa (directions in [-1, 1]) have one entry per
    path; matrix (n_r, n_t) is the sum of the L path outer products over
    sqrt(L).  The path arrays are read-only copies of the ones given, and
    matrix is read-only.  n_t and n_r are positive integers, stored as
    Python ints.  Mismatched lengths, L = 0, a gain or direction that is
    not finite, or finite paths whose matrix is not (say, gains near the
    float range's top, whose sum overflows) raise ValueError naming the
    field or the channel matrix.
    """

    n_t: int
    n_r: int
    gains: np.ndarray  # (L,) complex
    aod: np.ndarray  # (L,) departure directions
    aoa: np.ndarray  # (L,) arrival directions
    matrix: np.ndarray = field(init=False, repr=False)  # (n_r, n_t)

    def __post_init__(self):
        for name in ("n_t", "n_r"):
            object.__setattr__(self, name, _count(name, getattr(self, name), 1))
        for name, dtype in (("gains", complex), ("aod", float), ("aoa", float)):
            a = np.array(getattr(self, name), dtype=dtype)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        l = _count("path count", max(self.gains.size, self.aod.size, self.aoa.size), 1)
        for name in ("gains", "aod", "aoa"):
            shape = getattr(self, name).shape
            if shape != (l,):
                raise ValueError(f"{name} must have length {l}, got shape {shape}")
        dirs = np.array((self.aoa, self.aod))
        # checked before the exponential, which warns on a non-finite angle
        if not (np.isfinite(dirs).all() and np.isfinite(self.gains).all()):
            for name, dtype in (("gains", complex), ("aod", float), ("aoa", float)):
                _finite(name, getattr(self, name), dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            matrix = _path_matrix(self.n_t, self.n_r, self.gains, dirs)
        object.__setattr__(self, "matrix", _finite("channel matrix", matrix, complex))


def _path_matrix(n_t, n_r, gains, dirs):
    """The read-only (n_r, n_t) sum over the L paths of g_l a_r,l a_t,l^H
    (steering vectors without their 1/sqrt(n)) over sqrt(L), for gains (L,)
    complex and dirs (2, L) float holding the arrival, then the departure
    directions."""
    # both steering tables from one exponential, (2, max(n_r, n_t), L);
    # each table is a C-contiguous block of it, so the product below sees
    # the layouts of separate tables.  The antenna indices are exact
    # floats, so the phase product needs no cast.
    n = np.arange(float(max(n_r, n_t)))[:, None]
    steer = np.exp(1j * np.pi * (n * dirs[:, None]))
    ar, at = steer[0, :n_r], steer[1, :n_t]
    ar *= gains
    matrix = ar @ at.conj().T
    matrix /= math.sqrt(gains.size)  # a reciprocal multiply need not round the same
    matrix.setflags(write=False)
    return matrix


def _channel(n_t, n_r, gains, dirs):
    """Channel(n_t, n_r, gains, dirs[1], dirs[0]) without its copies and
    path checks, for fresh arrays that are finite by construction and whose
    matrix cannot overflow: gains (L,) complex and dirs (2, L) float of
    directions in [-1, 1], as _path_matrix takes them, L >= 1.  n_t and n_r
    are still checked.  The channel keeps gains and dirs, made read-only."""
    n_t, n_r = _count("n_t", n_t, 1), _count("n_r", n_r, 1)
    gains.setflags(write=False)
    dirs.setflags(write=False)
    ch = object.__new__(Channel)
    for name, value in (("n_t", n_t), ("n_r", n_r), ("gains", gains), ("aod", dirs[1]),
                        ("aoa", dirs[0]), ("matrix", _path_matrix(n_t, n_r, gains, dirs))):
        object.__setattr__(ch, name, value)
    return ch


def draw_channel(n_t, n_r, l, seed=None):
    """Draw a random L-path channel.

    Path gains are standard circular complex Gaussian; departure, then
    arrival directions are uniform on [-1, 1].  seed is an integer >= 0 or
    a non-scalar np.random.default_rng takes; a Generator is used as it is.
    """
    l = _count("l", l, 1)
    rng = np.random.default_rng(_count("seed", seed, 0) if np.isscalar(seed) else seed)
    gains = _normal_pairs(rng, l, _RSQRT2)
    # the stream of two draws of l; rows reversed, arrival first
    dirs = rng.uniform(-1, 1, (2, l))[::-1]
    return _channel(n_t, n_r, gains, dirs)


def _normal_pairs(rng, n, scale):
    """z[:n] s + j z[n:] s for one draw z of 2n standard normals and the
    real scale s: the same stream as a draw of n real parts, then one of n
    imaginary parts."""
    z = rng.standard_normal(2 * n)
    z *= scale
    out = np.empty(n, dtype=complex)
    out.real = z[:n]
    out.imag = z[n:]
    return out


def _snr_params(snr_db):
    """(transmit power P, noise scale s) with unit noise variance as the
    knob: s is the real per-component scale sigma * (1 / sqrt(2)) of the
    noise std sigma, _NOISELESS at +inf and _RSQRT2 otherwise.  NaN, an int
    past the float range, and a finite snr_db whose power overflows (above
    about 3082 dB) raise ValueError."""
    try:
        if math.isnan(snr_db):
            raise ValueError("snr_db must not be NaN")
        if snr_db == np.inf:
            return 1.0, _NOISELESS
        if snr_db == -np.inf:
            return 0.0, _RSQRT2
        return 10.0 ** (snr_db / 10.0), _RSQRT2
    except OverflowError:
        raise ValueError("snr_db must be a float-range number of dB up to about "
                         "3082, past which the power 10^(snr_db / 10) overflows; "
                         "+inf is the noiseless limit") from None


def measure(v, w, ch, snr_db, rng):
    """One noisy received-power measurement |y|^2 for a beam pair.

    y = sqrt(P) w^H H v + w^H eta with eta circular Gaussian of unit
    per-entry variance; P is set by snr_db.  snr_db of +/-inf selects the
    noiseless and pure-noise limits; NaN, or a P past the float range,
    raises ValueError, as does a w or v that is not 1-D of length N_r or
    N_t, naming it.

    Bit for bit, with n = N_r: z is one draw rng.standard_normal(2n),
    the only read of rng, and eta = z[:n] s + j z[n:] s with the real
    scale s = sigma * (1 / sqrt(2)), where sigma is 0 at snr_db = +inf and 1
    otherwise; at sigma = 1 that is the complex array z[:n] + j z[n:]
    divided by sqrt(2), whose complex division multiplies by 1 / sqrt(2).
    Inside hierarchical_search, rng is the descent's noise block instead,
    and eta is its next row: row j holds measurement j's normals, real half
    then imaginary half, scaled by s, the same eta bit for bit; a block made
    for another N_r or s raises ValueError.
    P is 10^(snr_db / 10), 1 at +inf and 0 at -inf.  y = sqrt(P) *
    ((conj(w) H) v) + conj(w) eta, with the products (numpy's dot) in that
    order, and the result is float(np.abs(y) ** 2).  A
    result that is not finite raises ValueError naming the first non-finite
    entry of w, of v or of the channel matrix (by flat index), or else
    snr_db: near the top of its range (about 3082 dB) |y|^2 can overflow
    where P does not.
    """
    p, scale = _snr_params(snr_db)
    h = ch.matrix
    w_h = np.asarray(w, dtype=complex).conj()
    if type(rng) is _NoiseRows:
        eta = rng.row(h.shape[0], scale)
    else:
        eta = _normal_pairs(rng, h.shape[0], scale)
    try:
        # ndarray.dot is np.dot without its dispatcher
        y = math.sqrt(p) * w_h.dot(h).dot(np.asarray(v, dtype=complex))
        y += w_h.dot(eta)
        # np.abs, not abs(): the two round differently in the last bit
        power = float(np.abs(y) ** 2)
    except (ValueError, TypeError, AttributeError):
        # a beam that does not fit the channel (numpy's dot, a 0-d w whose
        # conjugate is a scalar without .dot, or float() of more than one
        # power) is named; checked only here, like the non-finite beams below
        for name, beam, size, count in (("w", w, "n_r", h.shape[0]),
                                        ("v", v, "n_t", h.shape[1])):
            if np.shape(beam) != (count,):
                raise ValueError(f"{name} must be a 1-D beam of {size} = {count} "
                                 f"entries, got shape {np.shape(beam)}") from None
        raise
    if not math.isfinite(power):
        # a non-finite beam, then a non-finite channel, is named first;
        # checked only here, so the per-trial path keeps its one isfinite
        _finite("w", w, complex)
        _finite("v", v, complex)
        _finite("channel matrix", h, complex)
        raise ValueError(f"received power is {power} at snr_db = {snr_db}, not a finite "
                         f"number; a lower snr_db keeps it in the float range")
    return power


def _check_dims(tx_cb, rx_cb, ch):
    if tx_cb.n != ch.n_t or rx_cb.n != ch.n_r:
        raise ValueError(
            f"codebook sizes ({tx_cb.n}, {rx_cb.n}) do not match channel "
            f"({ch.n_t}, {ch.n_r})"
        )
    if tx_cb.m != rx_cb.m:
        raise ValueError("tx and rx codebooks must share the hierarchical factor")
    if ch.n_r > ch.n_t:
        raise ValueError(
            f"hierarchical search needs N_r <= N_t, got {ch.n_r} > {ch.n_t}"
        )


def hierarchical_search(tx_cb, rx_cb, ch, snr_db, rng, use_practical=False):
    """Layer-by-layer descent using measured powers only.

    Each codebook has log_M N layers.  The receive codebook's layers test
    all M x M child pairs jointly; the remaining transmit layers test M
    transmit children against the single receive beam selected at the
    receive bottom layer.  Ties keep the first pair measured.  The
    measurement total equals training_test_count(N_t, N_r, M); N_r must
    not exceed N_t.

    The descent's noise is one draw rng.standard_normal(2 N_r T), T that
    total, taken after snr_db is checked and before the first measurement.
    It is laid out once as a (T, N_r) complex block whose row j holds
    measurement j's (0-based, in the order above) normals
    [2 N_r j, 2 N_r (j + 1)), real half then imaginary half, scaled by
    measure's noise scale; measure reads row j as the eta it would make of
    rng.standard_normal(2 N_r).  Normals are drawn in sequence, so rng ends
    where T calls of measure on rng itself would leave it, and the powers
    are the same.  A NaN or overflowing snr_db raises ValueError with rng
    untouched.

    Returns (tx_index, rx_index, measurements) with 0-based bottom-layer
    indices.
    """
    _check_dims(tx_cb, rx_cb, ch)
    scale = _snr_params(snr_db)[1]
    m = tx_cb.m
    rx_layers = rx_cb.layers
    total = m * len(tx_cb.layers) + (m * m - m) * len(rx_layers)
    noise = _NoiseRows(rng.standard_normal(2 * ch.n_r * total), ch.n_r, scale)
    ti = ri = 0  # selected entry (0-based) at the current layer
    count = 0
    for s, tx_layer in enumerate(tx_cb.layers):
        if s < len(rx_layers):
            rx_layer, rx_children = rx_layers[s], range(m * ri, m * ri + m)
        else:  # a transmit-only layer keeps the selected receive beam
            rx_layer, rx_children = rx_layers[-1], (ri,)
        rx_beams = [(b, rx_layer[b].codeword(use_practical)) for b in rx_children]
        best = None
        for a in range(m * ti, m * ti + m):
            for b, wb in rx_beams:
                power = measure(tx_layer[a].codeword(use_practical), wb, ch,
                                snr_db, noise)
                count += 1
                if best is None or power > best:
                    best, best_a, best_b = power, a, b
        ti, ri = best_a, best_b
    return ti, ri, count


class _NoiseRows:
    """The noise of a descent's measurements, made in one pass from one
    draw z of 2 n T standard normals and the real scale s: a (T, n) complex
    block whose row j is z[2nj : 2nj + n] s + j z[2nj + n : 2n(j + 1)] s,
    the eta _normal_pairs(rng, n, s) makes of measurement j's normals.
    row(n, s) hands out the next row, in place; a request of another n or
    s, or past the last row, raises and hands out none."""

    __slots__ = ("_rows", "_n", "_scale", "_at")

    def __init__(self, z, n, scale):
        rows = np.empty((z.size // (2 * n), n), dtype=complex)
        # the interleaved (T, n, 2) float view of rows, filled by one
        # product with the (T, 2, n) draw's halves transposed into place
        np.multiply(z.reshape(-1, 2, n).transpose(0, 2, 1), scale,
                    out=rows.view(float).reshape(-1, n, 2))
        self._rows, self._n, self._scale, self._at = rows, n, scale, 0

    def row(self, n, scale):
        # measure passes the module's scale constants, so `is` decides
        if n != self._n or scale is not self._scale and scale != self._scale:
            raise ValueError(f"holds rows of {self._n} entries at noise scale "
                             f"{self._scale}, not {n} at {scale}")
        row = self._rows[self._at]
        self._at += 1
        return row


def exhaustive_best_pair(tx_cb, rx_cb, ch, use_practical=False):
    """Noiseless argmax of |w^H H v| over all bottom-layer pairs (0-based)."""
    _check_dims(tx_cb, rx_cb, ch)
    # the layouts np.column_stack gave, for the same BLAS products: v is
    # C-contiguous (n_t, entries), w^H the F-contiguous (entries, n_r)
    v = np.array([e.codeword(use_practical) for e in tx_cb.bottom]).T.copy()
    w_h = np.conjugate(np.array([e.codeword(use_practical) for e in rx_cb.bottom]),
                       order="F")
    scores = np.abs(w_h @ ch.matrix @ v)  # (rx, tx)
    ri, ti = divmod(int(scores.argmax()), scores.shape[1])
    return ti, ri


def _hashmix(value, before, after):
    """numpy's SeedSequence hashmix of uint32 words under the hash constant
    before, which it advances to after.  value and the constants are Python
    ints below 2^32 or uint32 arrays, broadcast elementwise; exact mod 2^32."""
    value = (value ^ before) * after & _MASK32
    return value ^ value >> _XSHIFT


def _mix(x, y):
    """numpy's SeedSequence mix of uint32 words, as _hashmix takes them."""
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> _XSHIFT


def _hash_steps(hash_const, mult, count):
    """The hash constants before and after each of count steps from
    hash_const, each step multiplying by mult: two (count,) uint32 arrays."""
    steps = [hash_const]
    for _ in range(count):
        steps.append(steps[-1] * mult & _MASK32)
    steps = np.array(steps, dtype=np.uint32)
    return steps[:-1], steps[1:]


def _seed_pool(seed):
    """The part of SeedSequence(seed, spawn_key=key)'s mixing that a
    two-word key does not touch, for an int seed >= 0: (the pool, as four
    Python ints, and the hashmix constant reached) after the seed's words.

    Those are seed's 32-bit words, least significant first, padded with
    zeros to the pool size, as numpy pads them when a spawn key follows
    (numpy 1.19, gh-16539).  The first four are hashed into the pool and
    every pool word is mixed into every other; each further word is then
    mixed into each pool word.
    """
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL - len(words))
    hash_const = _INIT_A

    def hashed(value):
        nonlocal hash_const
        before, hash_const = hash_const, hash_const * _MULT_A & _MASK32
        return _hashmix(value, before, hash_const)

    pool = [hashed(w) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashed(pool[src]))
    for w in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashed(w))
    return pool, hash_const


def _trial_words(pool, t):
    """(2, t.size, 4) uint64 array whose row [j, i] is the C-contiguous
    SeedSequence(seed, spawn_key=(t[i], j)).generate_state(4, np.uint64),
    for pool = _seed_pool(seed) and t a 1-D uint32 array.

    The key's words t[i], then j, are each mixed into each pool word, and
    generate_state hashes the pool words 0 1 2 3 0 1 2 3 into eight uint32
    words, which pair up little-endian into four uint64 words.
    """
    words, hash_const = pool
    before, after = _hash_steps(hash_const, _MULT_A, 2 * _POOL)
    by_t = _mix(np.array(words, dtype=np.uint32),
                _hashmix(t[:, None], before[:_POOL], after[:_POOL]))
    j = np.array([[0], [1]], dtype=np.uint32)
    by_j = _mix(by_t, _hashmix(j, before[_POOL:], after[_POOL:])[:, None])
    state = _hashmix(np.tile(by_j, 2), *_hash_steps(_INIT_B, _MULT_B, 2 * _POOL))
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _Words(np.random.bit_generator.ISeedSequence):
    """The seed sequence of one precomputed PCG64 seed: generate_state(4,
    np.uint64) returns words, a C-contiguous (4,) uint64 array, as the
    SeedSequence it stands for would give them.  Any other request raises
    ValueError."""

    def __init__(self, words):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds 4 uint64 words, not {n_words} of {np.dtype(dtype)}")
        return self._words


def _trial_generators(seed, trials):
    """Trial t's channel and noise generators for t = 0 .. trials - 1
    (trials <= 2^32): those np.random.default_rng makes of
    SeedSequence(seed, spawn_key=(t, 0)) and (t, 1), seeded from words
    computed _SEED_BLOCK trials at a time."""
    pool = _seed_pool(seed)
    for start in range(0, trials, _SEED_BLOCK):
        t = np.arange(start, min(start + _SEED_BLOCK, trials)).astype(np.uint32)
        for ch_words, noise_words in zip(*_trial_words(pool, t)):
            yield (np.random.Generator(np.random.PCG64(_Words(ch_words))),
                   np.random.Generator(np.random.PCG64(_Words(noise_words))))


@dataclass
class TrainingConfig:
    """Monte-Carlo beam-training campaign parameters.  trials is in
    [1, 2^32].  use_practical is a bool (or np.bool_); anything else raises
    ValueError naming it."""

    tx_codebook: HierarchicalCodebook
    rx_codebook: HierarchicalCodebook
    snr_db: float
    trials: int
    seed: int = 0
    paths: int = 1
    use_practical: bool = False

    def __post_init__(self):
        # a trial index fits the one 32-bit spawn-key word _trial_words
        # takes; 2^32 trials' records alone would hold about 1.7 TB
        self.trials = _count("trials", self.trials, 1, 2**32)
        self.seed = _count("seed", self.seed, 0)
        self.paths = _count("paths", self.paths, 1)
        if not isinstance(self.snr_db, numbers.Real) or isinstance(self.snr_db, bool):
            raise ValueError(f"snr_db must be a real number in dB, or +/-inf, "
                             f"got {self.snr_db!r}")
        _snr_params(self.snr_db)  # rejects NaN and powers past the float range
        if not isinstance(self.use_practical, (bool, np.bool_)):
            raise ValueError(f"use_practical must be a bool, got "
                             f"{self.use_practical!r}")


def success_rate(cfg):
    """Run a Monte-Carlo beam-training campaign.

    Each trial draws a fresh channel and noise stream from a per-trial
    split of the master seed, runs the hierarchical search, and compares
    the result with the noiseless exhaustive optimum.  Returns a dict with
    rate, ci95 (normal-approximation 95% half width), successes, trials,
    and the per-trial records.

    Trial t (0-based, trials at most 2^32) draws its channel and its noise
    from the default_rng of SeedSequence(seed, spawn_key=(t, 0)) and of
    (t, 1): the two children of child t of SeedSequence(seed).spawn(trials).
    Each generator's PCG64 is seeded from the words those SeedSequences'
    generate_state(4, np.uint64) give, computed for a block of trials at a
    time.  Its descent reads that noise as hierarchical_search describes.
    """
    tx, rx, practical = cfg.tx_codebook, cfg.rx_codebook, cfg.use_practical
    successes = 0
    records = []
    for t, (ch_rng, noise) in enumerate(_trial_generators(cfg.seed, cfg.trials)):
        ch = draw_channel(tx.n, rx.n, cfg.paths, ch_rng)
        ti, ri, n_meas = hierarchical_search(tx, rx, ch, cfg.snr_db, noise,
                                             practical)
        bt, br = exhaustive_best_pair(tx, rx, ch, practical)
        ok = ti == bt and ri == br
        successes += ok
        records.append(
            {
                "trial": t,
                "selected": [ti, ri],
                "best": [bt, br],
                "success": ok,
                "measurements": n_meas,
            }
        )
    rate = successes / cfg.trials
    ci95 = 1.96 * np.sqrt(rate * (1.0 - rate) / cfg.trials)
    return {
        "rate": rate,
        "ci95": float(ci95),
        "successes": successes,
        "trials": cfg.trials,
        "records": records,
    }

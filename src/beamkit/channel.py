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

from .arrays import _count
from .codebook import HierarchicalCodebook
from .practical import _finite

__all__ = [
    "Channel",
    "draw_channel",
    "measure",
    "hierarchical_search",
    "exhaustive_best_pair",
    "TrainingConfig",
    "success_rate",
]


# the per-component scale of unit-variance circular complex Gaussians.  A
# real draw times it is bit for bit the draw's complex array divided by
# sqrt(2) + 0j: numpy's complex division multiplies by 1 / the real divisor.
# A 0-d array, so a product skips a scalar cast on every call.
_RSQRT2 = np.array(1.0 / math.sqrt(2.0))
_RSQRT2.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Channel:
    """Multipath MIMO channel built from its L paths; immutable.

    gains (complex), aod and aoa (directions in [-1, 1]) have one entry per
    path; matrix (n_r, n_t) is the sum of the L path outer products over
    sqrt(L).  The path arrays are read-only copies of the ones given, and
    matrix is read-only.  n_t and n_r are positive integers, stored as
    Python ints.  Mismatched lengths, L = 0, or a gain or direction that is
    not finite raise ValueError naming the field.
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
        # both steering tables from one exponential, (2, max(n_r, n_t), L);
        # each table is a C-contiguous block of it, so the products below
        # see the layouts of separate tables.  The antenna indices are exact
        # floats, so the phase product needs no cast.  sqrt(n) factors of
        # the steering vectors cancel against the leading scale.
        n = np.arange(float(max(self.n_r, self.n_t)))[:, None]
        steer = np.exp(1j * np.pi * (n * dirs[:, None]))
        ar, at = steer[0, :self.n_r], steer[1, :self.n_t]
        ar *= self.gains
        matrix = ar @ at.conj().T
        matrix /= math.sqrt(l)  # a reciprocal multiply need not round the same
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)


def draw_channel(n_t, n_r, l, seed=None):
    """Draw a random L-path channel.

    Path gains are standard circular complex Gaussian; departure, then
    arrival directions are uniform on [-1, 1].  seed is an integer >= 0 or
    a non-scalar np.random.default_rng takes; a Generator is used as it is.
    """
    l = _count("l", l, 1)
    rng = np.random.default_rng(_count("seed", seed, 0) if np.isscalar(seed) else seed)
    gains = _normal_pairs(rng, l, _RSQRT2)
    aod, aoa = rng.uniform(-1, 1, (2, l))  # the stream of two draws of l
    return Channel(n_t, n_r, gains, aod, aoa)


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
    """(transmit power, noise std) with unit noise variance as the knob.
    NaN, an int past the float range, and a finite snr_db whose power
    overflows (above about 3082 dB) raise ValueError."""
    try:
        if math.isnan(snr_db):
            raise ValueError("snr_db must not be NaN")
        if snr_db == np.inf:
            return 1.0, 0.0
        if snr_db == -np.inf:
            return 0.0, 1.0
        return 10.0 ** (snr_db / 10.0), 1.0
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
    P is 10^(snr_db / 10), 1 at +inf and 0 at -inf.  y = sqrt(P) *
    ((conj(w) H) v) + conj(w) eta, with the products (numpy's dot) in that
    order, and the result is float(np.abs(y) ** 2).  A
    result that is not finite raises ValueError naming the first non-finite
    entry of w, of v or of the channel matrix (by flat index), or else
    snr_db: near the top of its range (about 3082 dB) |y|^2 can overflow
    where P does not.
    """
    p, sigma = _snr_params(snr_db)
    h = ch.matrix
    w_h = np.asarray(w, dtype=complex).conj()
    eta = _normal_pairs(rng, h.shape[0],
                        _RSQRT2 if sigma == 1.0 else sigma * _RSQRT2)
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
    total, taken before the first measurement: measurement j (0-based, in
    the order above) reads normals [2 N_r j, 2 N_r (j + 1)) of it as its
    rng.standard_normal(2 N_r).  Normals are drawn in sequence, so rng ends
    where T calls of measure on rng itself would leave it, and the powers
    are the same.

    Returns (tx_index, rx_index, measurements) with 0-based bottom-layer
    indices.
    """
    _check_dims(tx_cb, rx_cb, ch)
    m = tx_cb.m
    rx_layers = rx_cb.layers
    total = m * len(tx_cb.layers) + (m * m - m) * len(rx_layers)
    noise = _Draws(rng.standard_normal(2 * ch.n_r * total))
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


class _Draws:
    """Consecutive slices of one draw of standard normals, handed out in
    place of the generator that made it: standard_normal(size) returns the
    next size normals."""

    __slots__ = ("_z", "_at")

    def __init__(self, z):
        self._z, self._at = z, 0

    def standard_normal(self, size):
        at = self._at
        self._at = at + size
        return self._z[at:self._at]


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


@dataclass
class TrainingConfig:
    """Monte-Carlo beam-training campaign parameters.  use_practical is a
    bool (or np.bool_); anything else raises ValueError naming it."""

    tx_codebook: HierarchicalCodebook
    rx_codebook: HierarchicalCodebook
    snr_db: float
    trials: int
    seed: int = 0
    paths: int = 1
    use_practical: bool = False

    def __post_init__(self):
        self.trials = _count("trials", self.trials, 1)
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

    Trial t (0-based) draws its channel from SeedSequence(seed,
    spawn_key=(t, 0)) and its noise from a default_rng of
    SeedSequence(seed, spawn_key=(t, 1)): the two children of child t of
    SeedSequence(seed).spawn(trials).  Its descent reads that noise as
    hierarchical_search describes.
    """
    tx, rx, practical = cfg.tx_codebook, cfg.rx_codebook, cfg.use_practical
    successes = 0
    records = []
    for t in range(cfg.trials):
        ch_ss = np.random.SeedSequence(cfg.seed, spawn_key=(t, 0))
        noise_ss = np.random.SeedSequence(cfg.seed, spawn_key=(t, 1))
        ch = draw_channel(tx.n, rx.n, cfg.paths, ch_ss)
        noise = np.random.default_rng(noise_ss)
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

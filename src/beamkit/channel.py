"""Multipath channel generation and hierarchical beam-training simulation.

The channel is a sum of L rank-one steering outer products with complex
Gaussian path gains (Saleh-Valenzuela form).  Beam training descends a
pair of hierarchical codebooks using noisy power measurements only; a
trial succeeds when the selected bottom-layer pair coincides with the
noiseless exhaustive optimum over bottom-layer pairs.
"""

import math
from dataclasses import dataclass, field

import numpy as np

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


# the per-component scale of unit-variance circular complex Gaussians
_SQRT2 = np.sqrt(2)


@dataclass(frozen=True, eq=False)
class Channel:
    """Multipath MIMO channel built from its L paths; immutable.

    gains (complex), aod and aoa (directions in [-1, 1]) have one entry per
    path; matrix (n_r, n_t) is the sum of the L path outer products over
    sqrt(L).  The path arrays are read-only copies of the ones given, and
    matrix is read-only.  Mismatched lengths or L = 0 raise ValueError.
    """

    n_t: int
    n_r: int
    gains: np.ndarray  # (L,) complex
    aod: np.ndarray  # (L,) departure directions
    aoa: np.ndarray  # (L,) arrival directions
    matrix: np.ndarray = field(init=False, repr=False)  # (n_r, n_t)

    def __post_init__(self):
        for name, dtype in (("gains", complex), ("aod", float), ("aoa", float)):
            a = np.array(getattr(self, name), dtype=dtype)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        l = max(self.gains.size, self.aod.size, self.aoa.size)
        if l < 1:
            raise ValueError(f"path count must be positive, got {l}")
        for name in ("gains", "aod", "aoa"):
            shape = getattr(self, name).shape
            if shape != (l,):
                raise ValueError(f"{name} must have length {l}, got shape {shape}")
        # sqrt(n) factors of the steering vectors cancel against the leading scale
        ar = np.exp(1j * np.pi * (np.arange(self.n_r)[:, None] * self.aoa))
        at = np.exp(1j * np.pi * (np.arange(self.n_t)[:, None] * self.aod))
        matrix = (ar * self.gains) @ at.conj().T / np.sqrt(l)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)


def draw_channel(n_t, n_r, l, seed=None):
    """Draw a random L-path channel.

    Path gains are standard circular complex Gaussian; departure, then
    arrival directions are uniform on [-1, 1].  seed is anything
    np.random.default_rng takes; a Generator is used as it is.
    """
    rng = np.random.default_rng(seed)
    gains = (rng.standard_normal(l) + 1j * rng.standard_normal(l)) / _SQRT2
    return Channel(n_t, n_r, gains, rng.uniform(-1, 1, l), rng.uniform(-1, 1, l))


def _snr_params(snr_db):
    """(transmit power, noise std) with unit noise variance as the knob."""
    if math.isnan(snr_db):
        raise ValueError("snr_db must not be NaN")
    if snr_db == np.inf:
        return 1.0, 0.0
    if snr_db == -np.inf:
        return 0.0, 1.0
    return 10.0 ** (snr_db / 10.0), 1.0


def measure(v, w, ch, snr_db, rng):
    """One noisy received-power measurement |y|^2 for a beam pair.

    y = sqrt(P) w^H H v + w^H eta with eta circular Gaussian of unit
    per-entry variance; P is set by snr_db.  snr_db of +/-inf selects the
    noiseless and pure-noise limits; NaN raises ValueError.
    """
    p, sigma = _snr_params(snr_db)
    h = ch.matrix
    n_r = h.shape[0]
    w_h = np.asarray(w, dtype=complex).conj()
    # one draw of 2 n_r normals is the same stream as two draws of n_r
    z = rng.standard_normal(2 * n_r)
    eta = (z[:n_r] + 1j * z[n_r:]) * sigma / _SQRT2
    y = np.sqrt(p) * (w_h @ h @ np.asarray(v, dtype=complex))
    y += w_h @ eta
    # np.abs, not abs(): the two round differently in the last bit
    return float(np.abs(y) ** 2)


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

    Returns (tx_index, rx_index, measurements) with 0-based bottom-layer
    indices.
    """
    _check_dims(tx_cb, rx_cb, ch)
    m = tx_cb.m
    ti = ri = 0  # selected entry (0-based) at the current layer
    count = 0
    for s in range(1, tx_cb.s + 1):
        # a transmit-only layer keeps the selected receive beam as its one child
        joint = s <= rx_cb.s
        rx_layer = rx_cb.layers[s - 1] if joint else rx_cb.bottom
        rx_children = range(m * ri, m * ri + m) if joint else (ri,)
        rx_beams = [(b, rx_layer[b].codeword(use_practical)) for b in rx_children]
        tx_layer = tx_cb.layers[s - 1]
        best = None
        for a in range(m * ti, m * ti + m):
            for b, wb in rx_beams:
                va = tx_layer[a].codeword(use_practical)
                power = measure(va, wb, ch, snr_db, rng)
                count += 1
                if best is None or power > best[0]:
                    best = (power, a, b)
        _, ti, ri = best
    return ti, ri, count


def exhaustive_best_pair(tx_cb, rx_cb, ch, use_practical=False):
    """Noiseless argmax of |w^H H v| over all bottom-layer pairs (0-based)."""
    _check_dims(tx_cb, rx_cb, ch)
    # the C-contiguous (n, entries) layout of np.column_stack, built faster
    v = np.array([e.codeword(use_practical) for e in tx_cb.bottom]).T.copy()
    w = np.array([e.codeword(use_practical) for e in rx_cb.bottom]).T.copy()
    scores = np.abs(w.conj().T @ ch.matrix @ v)  # (rx, tx)
    ri, ti = divmod(int(np.argmax(scores)), scores.shape[1])
    return ti, ri


@dataclass
class TrainingConfig:
    """Monte-Carlo beam-training campaign parameters."""

    tx_codebook: HierarchicalCodebook
    rx_codebook: HierarchicalCodebook
    snr_db: float
    trials: int
    seed: int = 0
    paths: int = 1
    use_practical: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if self.paths < 1:
            raise ValueError(f"path count must be positive, got {self.paths}")
        _snr_params(self.snr_db)  # rejects NaN


def success_rate(cfg):
    """Run a Monte-Carlo beam-training campaign.

    Each trial draws a fresh channel and noise stream from a per-trial
    split of the master seed, runs the hierarchical search, and compares
    the result with the noiseless exhaustive optimum.  Returns a dict with
    rate, ci95 (normal-approximation 95% half width), successes, trials,
    and the per-trial records.
    """
    n_t = cfg.tx_codebook.n
    n_r = cfg.rx_codebook.n
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    successes = 0
    records = []
    for t in range(cfg.trials):
        ch_ss, noise_ss = streams[t].spawn(2)
        ch = draw_channel(n_t, n_r, cfg.paths, ch_ss)
        noise_rng = np.random.default_rng(noise_ss)
        ti, ri, n_meas = hierarchical_search(
            cfg.tx_codebook, cfg.rx_codebook, ch, cfg.snr_db, noise_rng,
            cfg.use_practical,
        )
        bt, br = exhaustive_best_pair(
            cfg.tx_codebook, cfg.rx_codebook, ch, cfg.use_practical
        )
        ok = (ti, ri) == (bt, br)
        successes += ok
        records.append(
            {
                "trial": t,
                "selected": [ti, ri],
                "best": [bt, br],
                "success": bool(ok),
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

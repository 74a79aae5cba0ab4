"""Hierarchical codebook assembly.

Layer s holds M^s codewords whose coverage intervals tile [-1, 1] into
equal pieces; each parent beam covers exactly the M beams of its children.
Upper-layer codewords come from the ideal design (optionally factored
through hardware), while bottom-layer sectors of width 2/N use plain
steering vectors.  A build designs every ideal codeword before it
factors any.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arrays import _count, steering_vector
from .ideal import SynthesisError, ls_icd, ps_icd
from .practical import _MAX_BITS, HybridCodeword, design_nrf1, fs_altmin, phase_set
from .targets import make_target

__all__ = [
    "CodebookEntry",
    "HierarchicalCodebook",
    "build_codebook",
    "training_test_count",
    "layer_count",
]


def layer_count(n, m):
    """Depth s of a hierarchical codebook for n = m^s antennas, s >= 1;
    any other n raises ValueError."""
    n, m = _count("n", n, 1), _count("m", m, 2)
    s = 1
    while m**s < n:
        s += 1
    if m**s != n:
        raise ValueError(f"antenna count {n} must be m^s with s >= 1 (m = {m})")
    return s


def training_test_count(n_t, n_r, m):
    """Number of beam-training measurements for one hierarchical descent.

    M * log_M N_t + (M^2 - M) * log_M N_r, versus N_t * N_r for the
    exhaustive sweep.  Both antenna counts must be powers of M, and the
    descent needs N_r <= N_t.
    """
    n_t, n_r, m = _count("n_t", n_t, 1), _count("n_r", n_r, 1), _count("m", m, 2)
    if n_r > n_t:
        raise ValueError(f"N_r must not exceed N_t, got {n_r} > {n_t}")
    return m * layer_count(n_t, m) + (m * m - m) * layer_count(n_r, m)


def _check_hw(hw, n):
    """hw checked, as a new dict of Python ints in hw's key order: None, or a dict
    of exactly n_rf, b and t_max, 1 <= n_rf <= n, 1 <= b <= 16, t_max >= 0."""
    if hw is None:
        return None
    if not isinstance(hw, dict):
        raise ValueError(f"hw must be None or a dict, got {hw!r}")
    if hw.keys() != {"n_rf", "b", "t_max"}:
        raise ValueError(f"hw keys must be n_rf, b and t_max, got {list(hw)}")
    ranges = {"n_rf": (1, n), "b": (1, _MAX_BITS), "t_max": (0, None)}
    return {key: _count(f"hw {key}", value, *ranges[key]) for key, value in hw.items()}


@dataclass(eq=False)
class CodebookEntry:
    """One codeword with its coverage interval."""

    coverage: tuple
    ideal: np.ndarray
    hybrid: Optional[HybridCodeword] = None

    def codeword(self, practical=False):
        if practical:
            if self.hybrid is None:
                raise ValueError("entry has no practical codeword")
            return self.hybrid.realized
        return self.ideal


@dataclass(eq=False)
class HierarchicalCodebook:
    """All layers of a hierarchical codebook; layers[s-1] has M^s entries."""

    n: int
    m: int
    seed: int
    layers: list
    method: str = "ps-icd"
    hw: Optional[dict] = None

    def __post_init__(self):
        """Check each entry against its place in the tree: entry i of layer s
        of the s = log_m n layers has a finite codeword of length n, covers the
        i-th of the m^s equal pieces of [-1, 1] exactly, and carries a b-bit
        hybrid exactly when hw is set, with hw n_rf chains above the bottom
        layer and one in it.  n, m, seed and the hw values become Python ints."""
        self.n, self.m = _count("n", self.n, 1), _count("m", self.m, 2)
        self.seed = _count("seed", self.seed, 0)
        self.hw = hw = _check_hw(self.hw, self.n)
        n, m, layers = self.n, self.m, self.layers
        s_total = layer_count(n, m)
        if len(layers) != s_total:
            raise ValueError(f"n = {n} needs {s_total} layers, got {len(layers)}")
        for s, layer in enumerate(layers, 1):
            if len(layer) != m**s:
                raise ValueError(f"layer {s} has {len(layer)} entries, expected {m**s}")
            # synthesized entries take n_rf chains, bottom steering vectors one
            want = hw and (hw["b"], 1 if s == s_total else hw["n_rf"])
            for i, e in enumerate(layer, 1):
                if e.ideal.shape != (n,) or e.hybrid and e.hybrid.n != n:
                    raise ValueError(
                        f"layer {s} entry {i}: codeword length is not n = {n}")
                if not np.isfinite(e.ideal).all():
                    raise ValueError(f"layer {s} entry {i}: ideal codeword is not finite")
                if tuple(e.coverage) != (tile := _tile(m, s, i)):
                    raise ValueError(f"layer {s} entry {i}: coverage {e.coverage} is not {tile}")
                if (got := e.hybrid and (e.hybrid.bits, e.hybrid.n_rf)) != want:
                    raise ValueError(f"layer {s} entry {i}: hybrid (b, n_rf) {got} is not "
                                     f"{want} for hw = {hw}")

    @property
    def s(self):
        return len(self.layers)

    @property
    def bottom(self):
        return self.layers[-1]


def _tile(m, s, i):
    """Coverage (lo, hi) of entry i (from 1) of layer s: the i-th of the m^s
    equal pieces of [-1, 1]."""
    width = 2.0 / m**s
    lo = -1.0 + (i - 1) * width
    return lo, lo + width


def _entry_seed(master, layer, index):
    ss = np.random.SeedSequence([master, layer, index])
    return int(ss.generate_state(1)[0])


def _failed(s, i):
    return RuntimeError(f"codeword synthesis failed at layer {s}, index {i}")


def build_codebook(n, m=2, k=128, r_max=2000, seed=0, method="ps-icd", hw=None):
    """Build the full hierarchical codebook for an n-antenna array.

    method selects the ideal design ("ps-icd" or "ls-icd").  hw, if given,
    is a dict with the integer keys n_rf, b and optionally t_max (default
    50), and no other; every entry then also carries a practical codeword.
    Sectors of width exactly 2/n use the steering vector at the sector
    midpoint (quantized per entry phase when hw is set) instead of a
    synthesized codeword.

    The build takes the paper's two steps.  First it designs every ideal
    codeword: with "ps-icd", the synthesized entries of all layers in one
    stacked ps_icd call, ps_icd(targets, n, k, r_max, seeds) in layer order,
    each entry with its own seed and equal bit for bit to its own call.
    Then, when hw is set, it factors the synthesized entries in one stacked
    fs_altmin call, in the same order and with the same seeds, each again
    equal to its own call; the bottom layer's steering vectors take one
    chain each.  A failure raises RuntimeError naming its layer and index,
    the first in layer order.  An ideal design that fails in any layer is
    reported before any factorization failure.

    n must be m^s for some s >= 1, and the grid size k at least n.  Per-entry
    seeds derive from the master seed and the layer/index, so any single
    codeword is reproducible in isolation.
    """
    if method not in ("ps-icd", "ls-icd"):
        raise ValueError(f"unknown ideal design method {method!r}")
    n, m, seed = _count("n", n, 1), _count("m", m, 2), _count("seed", seed, 0)
    s_total = layer_count(n, m)
    k, r_max = _count("k", k, n), _count("r_max", r_max, 0)
    if isinstance(hw, dict):  # anything else is _check_hw's to reject
        hw = {**hw, "t_max": hw.get("t_max", 50)}
    hw = _check_hw(hw, n)
    # (layer, index) of every entry, in layer order; the bottom layer's m^s
    # entries come last
    places = [(s, i) for s in range(1, s_total + 1) for i in range(1, m**s + 1)]
    synth = len(places) - m**s_total
    tiles = [_tile(m, s, i) for s, i in places]
    seeds = [_entry_seed(seed, s, i) for s, i in places[:synth]]
    ideals = []
    if method == "ps-icd" and synth:  # every synthesized entry in one call
        try:
            ideals = list(ps_icd([make_target("rect", tile) for tile in tiles[:synth]],
                                 n, k, r_max, seeds))
        except SynthesisError as exc:  # it names the first entry that failed
            raise _failed(*places[exc.entry]) from exc
    for (s, i), (lo, hi) in zip(places[len(ideals):], tiles[len(ideals):]):
        try:
            if s == s_total:
                ideals.append(steering_vector(n, 0.5 * (lo + hi)))
            else:
                ideals.append(ls_icd(make_target("rect", (lo, hi)), n, k))
        except Exception as exc:
            raise _failed(s, i) from exc
    hybrids = [None] * len(places)
    if hw:
        if synth:  # every synthesized entry in one call
            try:
                hybrids[:synth] = fs_altmin(np.array(ideals[:synth]), hw["n_rf"], hw["b"],
                                            hw["t_max"], seed=seeds)
            except SynthesisError as exc:  # it names the entry that failed
                raise _failed(*places[exc.entry]) from exc
        pset = phase_set(hw["b"])
        hybrids[synth:] = [design_nrf1(v, pset) for v in ideals[synth:]]
    entries = [CodebookEntry(*entry) for entry in zip(tiles, ideals, hybrids)]
    # layer s starts after the m + m^2 + ... + m^(s-1) entries above it
    layers = [entries[(m**s - m) // (m - 1):(m**(s + 1) - m) // (m - 1)]
              for s in range(1, s_total + 1)]
    return HierarchicalCodebook(n, m, seed, layers, method=method, hw=hw)

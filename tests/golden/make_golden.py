"""Golden-output ledger for the practical design.

Every named output of a fixed, seeded set of runs is reduced to a sha256
over its dtype, shape and bytes, so a change that moves any output by one
bit, or changes its dtype, shows up by name.  The runs are:

- fs_altmin phase indices, digital weights and residual trace at
  N = 12/16/32, n_rf = 2..5 and b = 1/2/4/6, with a short t_max;
- two codebook builds shaped like the benchmark's codebook-sweep
  (N = 16, 4 RF chains, 6 bits, t_max = 2);
- one ps-icd codebook with two RF chains at N = 16.

    PYTHONPATH=src python tests/golden/make_golden.py

rewrites manifest.json next to this file; tests/test_golden.py recomputes
every output and compares.  Regenerate the manifest only in a commit of
its own, with its reason in CHANGES.md; a refactor must pass against the
manifest it found.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from beamkit import build_codebook, fs_altmin, make_target, ps_icd

MANIFEST = Path(__file__).resolve().parent / "manifest.json"

SIZES = (12, 16, 32)
CHAINS = (2, 3, 4, 5)
BITS = (1, 2, 4, 6)
T_MAX = 4
SWEEP_SEEDS = (1, 2)
SWEEP_HW = {"n_rf": 4, "b": 6, "t_max": 2}


def digest(array):
    """sha256 over an array's dtype, shape and contiguous bytes."""
    a = np.ascontiguousarray(array)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def _codebook_outputs(label, cb):
    for s, layer in enumerate(cb.layers, 1):
        yield f"{label}/layer{s}/ideal", np.stack([e.ideal for e in layer])
        if cb.hw is not None:
            yield (f"{label}/layer{s}/indices",
                   np.stack([e.hybrid.phase_indices for e in layer]))
            yield (f"{label}/layer{s}/digital",
                   np.stack([e.hybrid.digital for e in layer]))


def outputs():
    """(name, array) for every ledger output, in manifest order."""
    target = make_target("rect", (-1.0, 0.0))
    for n in SIZES:
        v = ps_icd(target, n, 2 * n, 200, seed=0)
        for n_rf in CHAINS:
            for b in BITS:
                trace = []
                h = fs_altmin(v, n_rf, b, t_max=T_MAX, seed=n_rf + b, trace=trace)
                label = f"fs_altmin/n{n}/nrf{n_rf}/b{b}"
                yield f"{label}/indices", h.phase_indices
                yield f"{label}/digital", h.digital
                yield f"{label}/trace", np.asarray(trace, dtype=float)
    for seed in SWEEP_SEEDS:
        cb = build_codebook(16, m=2, k=128, r_max=2000, seed=seed,
                            method="ps-icd", hw=SWEEP_HW)
        yield from _codebook_outputs(f"sweep/seed{seed}", cb)
    cb = build_codebook(16, seed=3, method="ps-icd", hw={"n_rf": 2, "b": 6})
    yield from _codebook_outputs("ps-icd-2rf/n16", cb)


def main():
    manifest = {name: digest(a) for name, a in outputs()}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"{len(manifest)} outputs written to {MANIFEST}")


if __name__ == "__main__":
    main()

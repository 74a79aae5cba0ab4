"""Factor an ideal codeword through quantized phase shifters.

Shows how the realized codeword approaches the ideal one as RF chains
are added, and how the phase-shifter resolution b trades hardware cost
against fidelity.  A single chain reduces to per-antenna phase
quantization; two or more chains run the alternating design.

Run:  python3 demos/practical_factorization.py
"""

import numpy as np

from beamkit import deviation, fs_altmin, make_target, ps_icd

n = 32
target = make_target("rect", (-1.0, 0.0))
v = ps_icd(target, n, 128, r_max=2000, seed=0)

print(f"ideal codeword: N = {n}, rect coverage [-1, 0]")
print()
print("deviation ||v - F f|| by RF chains and phase bits "
      "(median over 10 seeds)")
print("n_rf \\ b |   2      4      6")
print("---------+---------------------")
for n_rf in (1, 2, 4, 8):
    cells = []
    for b in (2, 4, 6):
        # one stacked call designs all 10 seeds, each as its own call would
        hybrids = fs_altmin(np.tile(v, (10, 1)), n_rf, b, seed=range(10))
        devs = [deviation(v, h.realized) for h in hybrids]
        cells.append(f"{np.median(devs):.4f}")
    print(f"{n_rf:>8} | " + "  ".join(cells))

print()

# the residual trace from one run is non-increasing by construction
trace = []
hybrid = fs_altmin(v, 4, 6, seed=0, trace=trace)
print(f"n_rf=4, b=6 alternation: {len(trace)} residual samples, "
      f"first {trace[0]:.4f} -> last {trace[-1]:.6f}")
assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

# every analog entry is an exact member of the quantized phase set
print(f"analog matrix: {hybrid.n} x {hybrid.n_rf}, phase indices in "
      f"[0, {2**hybrid.bits - 1}], realized norm "
      f"{np.linalg.norm(hybrid.realized):.9f}")

"""Synthesize ideal wide-beam codewords and compare their patterns.

Designs a half-space rect codeword with both the least-squares baseline
and the phase-optimized method, then shows how the auxiliary phases
flatten the main lobe.  Also synthesizes triangular and two-level step
targets to show the same machinery handles non-flat profiles.

Run:  python3 demos/ideal_codeword_patterns.py
"""

import numpy as np

from beamkit import beam_gain, ls_icd, main_lobe_mse, make_target, ps_icd

n = 32
grid = np.linspace(-1.0, 1.0, 1024)

# --- rect target over the left half-space -------------------------------
rect = make_target("rect", (-1.0, 0.0))
v_ls = ls_icd(rect, n, 128)
v_ps = ps_icd(rect, n, 128, r_max=2000, seed=0)

print(f"rect target on [-1, 0], N = {n}, flat level sqrt(2) = {np.sqrt(2):.4f}")
print(f"  LS baseline   main-lobe MSE: {main_lobe_mse(v_ls, rect):.5f}")
print(f"  phase-shifted main-lobe MSE: {main_lobe_mse(v_ps, rect):.5f}")

# coarse ASCII sketch of both magnitudes over the coverage interval
inside = grid[(grid >= -1.0) & (grid <= 0.0)]
for label, v in (("LS", v_ls), ("PS", v_ps)):
    mags = np.abs(beam_gain(v, inside))
    bins = np.array_split(mags, 48)
    bars = "".join(" .:-=+*#"[min(7, int(np.mean(b) * 4))] for b in bins)
    print(f"  |G| {label}: [{bars}]")

# --- non-flat targets ---------------------------------------------------
for kind, kwargs in (("triangular", {}), ("step", {"heights": (1.0, 2.0)})):
    target = make_target(kind, (-0.5, 0.5), **kwargs)
    v = ps_icd(target, n, 128, r_max=2000, seed=0)
    mse = main_lobe_mse(v, target)
    print(f"{kind} target on [-0.5, 0.5]: MSE against the profile {mse:.5f}")

# the pattern energy is fixed at 2 regardless of the shape (Parseval),
# so narrower coverage trades width for height automatically
narrow = make_target("rect", (-0.25, 0.0))
v = ps_icd(narrow, n, 128, r_max=2000, seed=0)
peak = np.max(np.abs(beam_gain(v, grid)))
print(f"narrow rect on [-0.25, 0]: target level {narrow(-0.125):.3f}, "
      f"achieved peak {peak:.3f}")

"""Target magnitude patterns for codeword synthesis.

A target describes the desired |G(v, Omega)| over the coverage interval
[omega_lo, omega_hi] and is zero elsewhere.  The named shapes (rect,
triangular, step) are amplitude-scaled so that the energy of the target,
integral of g^2 over [-1, 1], equals 2 -- the energy of the pattern of any
unit-norm codeword -- which for a rect target of width B gives the flat
level C_v = sqrt(2/B).
"""

import numpy as np

__all__ = ["TargetPattern", "make_target"]


def _coverage(coverage):
    """coverage as a (lo, hi) float pair of positive width, else ValueError."""
    lo, hi = float(coverage[0]), float(coverage[1])
    if not hi > lo:
        raise ValueError(f"coverage [{lo}, {hi}] must have positive width")
    return lo, hi


class TargetPattern:
    """Desired magnitude profile g(Omega) over a coverage interval.

    g is evaluate(omega) inside the coverage and 0 outside; a call returns an
    array of omega's shape (0-d for a scalar omega), as a numpy ufunc does.
    """

    def __init__(self, coverage, evaluate):
        lo, hi = self.coverage = _coverage(coverage)
        if lo < -1.0 or hi > 1.0:
            raise ValueError(f"coverage [{lo}, {hi}] must lie within [-1, 1]")
        self._evaluate = evaluate

    def __call__(self, omega):
        om = np.asarray(omega, dtype=float)
        lo, hi = self.coverage
        inside = (om >= lo) & (om <= hi)
        out = np.zeros(om.shape)
        if inside.any():
            out[inside] = self._evaluate(om[inside])
        return out

    def __repr__(self):
        lo, hi = self.coverage
        return f"TargetPattern([{lo}, {hi}])"


def make_target(kind, coverage, *, heights=(1.0, 2.0), split=0.5):
    """Build a named target pattern; TargetPattern builds any other profile.

    kind: "rect", "triangular" or "step".
      rect        flat level sqrt(2/B) over the coverage of width B.
      triangular  rises linearly from 0 at the left edge to the peak at the
                  midpoint and back to 0; peak sqrt(6/B).
      step        two plateaus with relative heights (h1, h2) = heights
                  splitting the coverage at fraction split, scaled to
                  total energy 2.
    Keywords a kind does not use are ignored.
    """
    lo, hi = _coverage(coverage)
    width = hi - lo

    if kind == "rect":
        level = np.sqrt(2.0 / width)
        return TargetPattern(coverage, lambda om: np.full(om.shape, level))

    if kind == "triangular":
        # energy of a symmetric triangle of peak h over width B is h^2 B / 3
        peak = np.sqrt(6.0 / width)
        mid = 0.5 * (lo + hi)

        def tri(om):
            return peak * (1.0 - np.abs(om - mid) / (0.5 * width))

        return TargetPattern(coverage, tri)

    if kind == "step":
        h1, h2 = heights
        if not (0.0 <= h1 < np.inf and 0.0 <= h2 < np.inf):  # NaN fails too
            raise ValueError(f"heights must be finite and nonnegative, got ({h1}, {h2})")
        if not 0.0 < split < 1.0:
            raise ValueError(f"split fraction must lie in (0, 1), got {split}")
        energy = width * (split * h1**2 + (1.0 - split) * h2**2)
        if energy <= 0:
            raise ValueError("step target has zero energy")
        scale = np.sqrt(2.0 / energy)
        edge = lo + split * width

        def step(om):
            return np.where(om < edge, scale * h1, scale * h2)

        return TargetPattern(coverage, step)

    raise ValueError(f"unknown target kind {kind!r}")

"""Emulating the average of two fields by alternating flows.

Flowing f and g in turn for equal time slices converges, as the slicing is
refined, to the flow of (f + g) / 2.  This is how the attainable set of a
control family swallows the convex hull of the family.
"""

from __future__ import annotations

import math

from .core import Schedule, VectorField

__all__ = ["average_flow_schedule"]


def average_flow_schedule(f: VectorField, g: VectorField, t: float, N: int) -> Schedule:
    """2N-step alternating schedule emulating the flow of (f + g) / 2 for time t.

    The steps are (f, t/2N), (g, t/2N), repeated N times; the last slot
    absorbs the roundoff, so the total time is exactly t.  The endpoint error
    against the averaged field decays like 1/N, driven by the time modulus
    of the reference trajectory over one half-period.
    """
    if f.dim != g.dim:
        raise ValueError("fields must share dim")
    if N < 1:
        raise ValueError("N must be >= 1")
    if not (t >= 0 and math.isfinite(t)):
        raise ValueError("t must be finite and nonnegative")
    if t == 0:
        return Schedule((), f.dim)
    taus = [t / (2 * N)] * (2 * N)
    taus[-1] = t - math.fsum(taus[:-1])  # Sterbenz: exact once the sum is near t
    return Schedule(tuple(zip((f, g) * N, taus)), f.dim)

"""Exact flows for scalar piecewise-linear vector fields.

A field of the form f(x) = sum_k v_k * relu(w_k * x + b_k) is continuous and
piecewise linear, so the autonomous ODE dz/dt = f(z) can be integrated in
closed form: inside each linearity interval the solution is affine or
exponential, and a trajectory crosses each kink at most once because scalar
autonomous trajectories are monotone in time.  Everything downstream that
composes ReLU-built flows (drives, squeezes, slope compilation, shears) runs
on this kernel, which makes endpoint evaluation exact up to roundoff.

When every kink is an equilibrium (``fixes_kinks``), no trajectory crosses a
kink: the flow maps each piece onto itself by an affine map, so it is an
increasing piecewise-linear map with the field's kinks as breakpoints, and
``flow`` applies each point's own piece map in one pass instead of walking.
The same closed forms give exact hitting times (``hitting_time``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import add

import numpy as np

from .core import FlowEvalError

__all__ = ["PwlField", "relu_terms_1d"]


def _ordered_sum(xs) -> float:
    """The value np.sum gives: in order below 8 entries, pairwise from 8 on."""
    return float(np.sum(xs)) if len(xs) >= 8 else reduce(add, xs, 0.0)


def relu_terms_1d(terms) -> np.ndarray:
    """Normalize a list of (v, w, b) triples into a (k, 3) float array."""
    arr = np.atleast_2d(np.asarray(terms, dtype=float))
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"expected (k, 3) term array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class PwlField:
    """Scalar field f(x) = sum_k v_k * relu(w_k x + b_k) with exact flow.

    Attributes
    ----------
    terms:
        (k, 3) array of finite (v, w, b) triples.  Terms with w == 0
        contribute the constant v * relu(b).
    fixes_kinks:
        True when the velocity is exactly 0.0 on both sides of every kink (no
        tolerance), so the flow is an increasing piecewise-linear map; true
        for fields without kinks.
    """

    terms: np.ndarray
    fixes_kinks: bool = field(init=False, repr=False, compare=False)
    _kinks: np.ndarray = field(init=False, repr=False, compare=False)
    _slope: np.ndarray = field(init=False, repr=False, compare=False)
    _icept: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        terms = relu_terms_1d(self.terms)
        object.__setattr__(self, "terms", terms)
        # Terms with w == 0 add a constant, the others a kink (kept when
        # finite).  Piece j covers (kinks[j-1], kinks[j]), j = 0..len(kinks),
        # and a term is active on it when positive at the piece's probe.
        rows = terms.tolist()
        # One sum is NaN or infinite when any entry is; only then are the
        # terms searched.  A finite sum that overflowed passes.
        if not math.isfinite(sum(chain.from_iterable(rows))):
            for k, row in enumerate(rows):
                if not all(map(math.isfinite, row)):
                    raise ValueError(f"pwl term {k} is not finite: (v, w, b) = {tuple(row)}")
        live = [(v, w, b) for v, w, b in rows if w != 0.0]
        base = _ordered_sum([v * max(b, 0.0) for v, w, b in rows if w == 0.0])
        kinks = sorted({k for k in (-b / w for _, w, b in live) if math.isfinite(k)})
        if kinks:
            gap = max(1.0, abs(kinks[0]), abs(kinks[-1]))
            edges = [kinks[0] - gap, *kinks, kinks[-1] + gap]
            probes = [0.5 * (lo + hi) for lo, hi in zip(edges, edges[1:])]
        else:
            probes = [0.0]
        # Sums run in term order, as np.sum does, so each entry equals the
        # per-piece numpy sum over the active terms bit for bit.
        slope, icept = [], []
        for x0 in probes:
            act = [(v * w, v * b) for v, w, b in live if w * x0 + b > 0.0]
            s, c = map(_ordered_sum, zip(*act)) if act else (0.0, 0.0)
            slope.append(s)
            icept.append(c + base)
        fixed = all(slope[j] * k + icept[j] == 0.0 and slope[j + 1] * k + icept[j + 1] == 0.0
                    for j, k in enumerate(kinks))
        object.__setattr__(self, "fixes_kinks", fixed)
        object.__setattr__(self, "_kinks", np.array(kinks, dtype=float))
        object.__setattr__(self, "_slope", np.array(slope))
        object.__setattr__(self, "_icept", np.array(icept))

    # -- evaluation -------------------------------------------------------

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        v, w, b = self.terms[:, 0], self.terms[:, 1], self.terms[:, 2]
        return np.maximum(np.multiply.outer(x, w) + b, 0.0) @ v

    @property
    def kinks(self) -> np.ndarray:
        """Sorted distinct finite kinks -b/w."""
        return self._kinks

    # -- exact flow -------------------------------------------------------

    def flow(self, x, tau: float):
        """Endpoint of dz/dt = f(z), z(0) = x after time tau >= 0.

        Vectorized over x.  Exact up to floating point: steps from kink to
        kink using the affine closed form on each piece (one piece per point
        when every kink is an equilibrium).
        """
        if tau < 0:
            raise ValueError("tau must be nonnegative")
        x_in = np.asarray(x, dtype=float)
        z = x_in.ravel().copy()
        if tau > 0 and z.size:
            (self._affine_inplace if self.fixes_kinks else self._walk_inplace)(z, float(tau))
        if x_in.ndim == 0:
            return float(z[0])
        return z.reshape(x_in.shape)

    def flow_scalar(self, x: float, tau: float) -> float:
        """flow() of one point, returned as a float."""
        return self.flow(float(x), tau)

    def hitting_time(self, z0: float, z1: float) -> float:
        """Time the flow from z0 takes to reach z1; inf when it never does.

        Trajectories are monotone and cross each kink at most once, so the
        time is a sum over the pieces between z0 and z1 of ln(v1/v0)/a, or
        dz/c on a constant piece.  An equilibrium between z0 and z1 (or at
        z1), or a velocity pointing away from z1, makes it infinite.
        """
        z, z1 = float(z0), float(z1)
        if z == z1:
            return 0.0
        if math.isnan(z) or math.isnan(z1):
            raise ValueError("hitting_time needs non-NaN endpoints")
        if math.isinf(z) or math.isinf(z1):
            return math.inf  # growth is at most exponential
        kinks, slope, icept = self._kinks.tolist(), self._slope.tolist(), self._icept.tolist()
        up = z1 > z
        t = 0.0
        while z != z1:
            p = bisect_right(kinks, z)
            if not up and p >= 1 and z == kinks[p - 1]:
                p -= 1
            a, c = slope[p], icept[p]
            v = a * z + c
            if v == 0.0 or (v > 0.0) != up:
                return math.inf
            if up:
                end = min(z1, kinks[p]) if p < len(kinks) else z1
            else:
                end = max(z1, kinks[p - 1]) if p >= 1 else z1
            if a == 0.0:
                t += (end - z) / v
            else:
                ratio = (a * end + c) / v
                if not ratio > 0.0:
                    return math.inf
                t += math.log(ratio) / a
            z = end
        return t

    def euler_steps(self, x, delta: float, k: int):
        """k forward-Euler steps z <- z + delta f(z) from x in closed form, or
        None when a step would overshoot a kink.

        Needs ``fixes_kinks``.  A point's step maps its piece affinely with
        factor m = 1 + delta a; while m > 0 the point never leaves its piece,
        so k steps give z_eq + (z - z_eq) exp(k log1p(delta a)), or
        z + (k delta) c on a constant piece.  Points at zero velocity stay,
        as in ``flow``.  When some moving point's piece has m <= 0, the steps
        would cross its kink and None is returned.
        """
        if not self.fixes_kinks:
            raise ValueError("euler_steps needs a field that fixes its kinks")
        z = np.asarray(x, dtype=float).copy()
        move, a, c = self._moving_pieces(z)
        if np.any(delta * a <= -1.0):
            return None
        zm = z[move]
        with np.errstate(over="ignore", invalid="ignore"):
            z_eq = -c / np.where(a != 0.0, a, 1.0)
            z[move] = np.where(a == 0.0, zm + (k * delta) * c,
                               z_eq + (zm - z_eq) * np.exp(k * np.log1p(delta * a)))
        return z

    def _moving_pieces(self, z: np.ndarray):
        """Mask of the points of z at nonzero velocity, and their pieces'
        slopes and intercepts."""
        p = np.searchsorted(self._kinks, z, side="right")
        a, c = self._slope[p], self._icept[p]
        move = a * z + c != 0.0
        return move, a[move], c[move]

    def _affine_inplace(self, z: np.ndarray, tau: float) -> None:
        # No trajectory leaves its piece, so each moving point takes its own
        # piece's affine map for the whole of tau: the arithmetic of the
        # walk's first piece, where no kink is ever hit, bit for bit.
        move, a, c = self._moving_pieces(z)
        zm = z[move]
        with np.errstate(over="ignore", invalid="ignore"):
            z_eq = -c / np.where(a != 0.0, a, 1.0)
            z[move] = np.where(a == 0.0, zm + c * tau, z_eq + (zm - z_eq) * np.exp(a * tau))

    def _walk_inplace(self, z: np.ndarray, tau: float) -> None:
        rem = np.full(z.shape, tau)
        kinks, slope, icept = self._kinks, self._slope, self._icept
        lo_edge = np.concatenate([[-np.inf], kinks])
        hi_edge = np.concatenate([kinks, [np.inf]])
        for _ in range(len(kinks) + 2):
            act = rem > 0.0
            if not act.any():
                break
            p = np.searchsorted(kinks, z, side="right")
            vel = slope[p] * z + icept[p]
            # Landed exactly on a kink while moving left: use the left piece.
            if len(kinks):
                on_kink = (p >= 1) & (z == lo_edge[p])
                p = np.where(act & on_kink & (vel < 0.0), p - 1, p)
            a, c = slope[p], icept[p]
            vel = a * z + c
            rem[act & (vel == 0.0)] = 0.0
            act = rem > 0.0
            if not act.any():
                break
            bnd = np.where(vel > 0.0, hi_edge[p], lo_edge[p])
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                t_lin = (bnd - z) / vel
                ratio = (a * bnd + c) / vel
                t_exp = np.where(ratio > 0.0, np.log(np.where(ratio > 0.0, ratio, 1.0)) / a, np.inf)
                t_hit = np.where(a == 0.0, t_lin, t_exp)
            t_hit = np.where(np.isnan(t_hit), np.inf, t_hit)
            hit = act & (t_hit <= rem)
            t_used = np.where(hit, t_hit, rem)
            with np.errstate(over="ignore", invalid="ignore"):
                z_eq = -c / np.where(a != 0.0, a, 1.0)
                z_free = np.where(
                    a == 0.0,
                    z + c * t_used,
                    z_eq + (z - z_eq) * np.exp(a * t_used),
                )
            z[act] = np.where(hit, bnd, z_free)[act]
            rem[act] = np.where(hit, rem - t_used, 0.0)[act]
        if np.any(rem > 0.0):
            # A trajectory crosses each kink at most once, so K + 2 pieces
            # always suffice; time left after them means the tables are
            # inconsistent.
            K = len(kinks)
            raise FlowEvalError(f"kink walk left time {float(np.max(rem)):.6g} unintegrated "
                                f"after {K + 2} pieces over {K} kinks")

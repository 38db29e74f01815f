"""Tensor-product control families and shear-based point operations.

A tensor field applies one scalar field to every coordinate; flows on
different coordinates commute, so its exact flow is the scalar flow applied
to each coordinate.  A shear stage is a ReLU field that reads one coordinate
z_j and drives z_j together with a second coordinate z_i by the same scalar
g(z_j), so z_i - z_j (or z_i + z_j) is conserved along the flow: composing
such a co-moving stage with the exact inverse on the controlling coordinate
realizes the shear x_i <- x_i + g(x_j).  Point separation and transport then
reduce to interpolating the needed per-point corrections by a difference of
two increasing piecewise-linear maps, each compiled exactly.

Separation takes one such shear per (coordinate i, read coordinate j) pair, as
the frozen backend's separation does: it shifts x_i by a multiple of x_j's
rank, which parts every pair colliding at i that differs at j.  Transport then
takes one shear per coordinate, landing every point at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Schedule, VectorField, field_from_json, flow_eval, register_family
from .families import relu_field
from .rates import compile_pwl_map
from .util import spread_targets

__all__ = [
    "tensor_field",
    "shear_schedule",
    "ShearParts",
    "shear_parts",
    "tensor_transport",
]

# Compiled shears land on their interpolation nodes only up to roundoff, so
# gaps below this floor are treated as collisions and separations overshoot it.
NOISE_FLOOR = 1e-9


def _clusters(values) -> np.ndarray:
    """Cluster rank of each value; sorted values closer than NOISE_FLOOR share one.

    The number of collisions is len(values) minus the number of clusters.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=int)
    ranks[order] = np.concatenate([[0], np.cumsum(np.diff(values[order]) >= NOISE_FLOOR)])
    return ranks


def tensor_field(g: VectorField, n: int) -> VectorField:
    """Coordinatewise field (g(x_1), ..., g(x_n)) from a scalar field g.

    The exact flow, when g has one, is g's exact flow applied to one
    coordinate at a time, and the field keeps g's ``pwl``.
    """
    if g.dim != 1:
        raise ValueError("tensor_field needs a 1D inner field")
    inner_eval = g.eval

    def evaluate(z, inner_eval=inner_eval):
        z = np.asarray(z, dtype=float)
        return inner_eval(z.reshape(-1, 1)).reshape(z.shape)

    params = {"n": n, "inner": {"family_tag": g.tag, "params": g.params}}
    exact = None
    if g.exact_flow is not None:
        def exact(z, tau, inner=g.exact_flow):
            z = np.asarray(z, dtype=float).copy()
            for k in range(z.shape[-1]):
                z[..., k] = inner(z[..., k:k + 1], tau)[..., 0]
            return z

    tag = "tensor" if g.tag is not None else None
    return VectorField(dim=n, eval=evaluate, lipschitz_bound=g.lipschitz_bound,
                       label="tensor", tag=tag, params=params if tag else None,
                       exact_flow=exact, pwl=g.pwl)


def _build_tensor(params: dict) -> VectorField:
    n = params["n"]
    if type(n) is not int or n < 1:
        raise ValueError(f"tensor key 'n' must be an integer >= 1, got {n!r}")
    return tensor_field(field_from_json(params["inner"]), n)


register_family("tensor", _build_tensor)


def _read_j_field(g1d: VectorField, j: int, n: int, coeffs: dict) -> VectorField:
    """ReLU field dz_r = coeffs[r] * g(z_j) reading coordinate j only, rest frozen.

    With coeffs {i: sign, j: 1} it is the co-moving stage, which conserves
    z_i - sign z_j; with {j: -1} it is the exact inverse on coordinate j.
    """
    if g1d.pwl is None:
        raise ValueError("shear stages need scalar ReLU-built fields")
    t = g1d.pwl.terms
    V = np.zeros((n, len(t)))
    for r, c in coeffs.items():
        V[r] = c * t[:, 0]
    W = np.zeros((len(t), n))
    W[:, j] = t[:, 1]
    return relu_field(V, W, t[:, 2], label=f"{g1d.label}|read[{j}]")


def _doubling_schedule() -> Schedule:
    """1D schedule whose flow is exactly x -> 2x: the scaling pair."""
    return compile_pwl_map([], [2.0], 0.0, 0.0)


@dataclass(frozen=True)
class ShearParts:
    comove: Schedule
    restore: Schedule
    comove_identity: Schedule
    restore_identity: Schedule

    @property
    def schedule(self) -> Schedule:
        out = self.comove.then(self.restore)
        return out.then(self.comove_identity).then(self.restore_identity)


def shear_parts(g_schedule: Schedule, i: int, j: int, n: int, sign: float = 1.0,
                include_identity: bool = True) -> ShearParts:
    """Stages of the shear construction; see shear_schedule."""
    if g_schedule.dim != 1:
        raise ValueError("g must be a 1D schedule")
    if i == j:
        raise ValueError("target and control coordinates must differ")
    if sign not in (1.0, -1.0):
        raise ValueError("sign must be +1 or -1")

    def stages(sched):
        comove = Schedule(tuple((_read_j_field(f, j, n, {i: sign, j: 1.0}), t)
                                for f, t in sched.steps), n)
        restore = Schedule(tuple((_read_j_field(f, j, n, {j: -1.0}), t)
                                 for f, t in reversed(sched.steps)), n)
        return comove, restore

    comove, restore = stages(g_schedule)
    if include_identity and len(g_schedule.steps):
        comove_id, restore_id = stages(_doubling_schedule())
    else:
        comove_id = restore_id = Schedule((), n)
    return ShearParts(comove=comove, restore=restore,
                      comove_identity=comove_id, restore_identity=restore_id)


def shear_schedule(g_schedule: Schedule, i: int, j: int, n: int,
                   sign: float = 1.0, include_identity: bool = True) -> Schedule:
    """Flow realizing x_i <- x_i + sign * G(x_j) with G the flow of g_schedule.

    g_schedule must consist of scalar ReLU-built fields; each stage is a ReLU
    field reading coordinate j.

    The co-moving stages add sign * (G(x_j) - x_j) while the controlling
    coordinate evolves; the exact inverse (reversed, negated steps, applied to
    coordinate j alone) restores it.  A doubling pair contributes the
    remaining sign * x_j.  An empty g_schedule degenerates to the empty shear.
    With include_identity=False the realized shear is sign * (G(x_j) - x_j),
    which is what difference-of-increasing constructions pair up.
    """
    return shear_parts(g_schedule, i, j, n, sign, include_identity).schedule


def _difference_shear(abscissae, corrections, i: int, j: int, n: int) -> Schedule:
    """Shear x_i += D(x_j) where D interpolates corrections at the abscissae.

    D is realized as a difference P - Q of increasing piecewise-linear maps:
    Q = lam * x with lam large enough that P = Q + D-interpolant is strictly
    increasing; both are compiled exactly, so the shear is exact at the
    abscissae and bystander points listed with zero correction do not move.
    """
    a = np.asarray(abscissae, dtype=float)
    d = np.asarray(corrections, dtype=float)
    order = np.argsort(a)
    a, d = a[order], d[order]
    if len(a) >= 2 and float(np.min(np.diff(a))) < NOISE_FLOOR:
        raise RuntimeError("shear abscissae closer than the noise floor; "
                           "interpolation slopes would be unbounded")
    if len(a) >= 2:
        lam = float(max(1.0, np.max(-np.diff(d) / np.diff(a)) * 2.0 + 1.0))
    else:
        lam = 1.0
    p_vals = lam * a + d
    if len(a) >= 2:
        inner_slopes = np.diff(p_vals) / np.diff(a)
        slopes = np.concatenate([[lam], inner_slopes, [lam]])
        breakpoints = a
    else:
        slopes = np.array([lam])
        breakpoints = np.empty(0)
    p_sched = compile_pwl_map(breakpoints, slopes, float(a[0]), float(p_vals[0]), slack=1e-6)
    q_sched = compile_pwl_map(np.empty(0), np.array([lam]), 0.0, 0.0, slack=1e-6)
    plus = shear_schedule(p_sched, i, j, n, sign=1.0, include_identity=False)
    minus = shear_schedule(q_sched, i, j, n, sign=-1.0, include_identity=False)
    return plus.then(minus)


def tensor_transport(xs, ys, eps: float, return_trace: bool = False):
    """Match distinct points to targets using tensor shears only.

    Separation makes every coordinate's values distinct to the noise floor.
    For each coordinate i and each read coordinate j on which some pair
    colliding at i differs, one shear adds delta times the rank of x_j's
    cluster, with delta = min(eps / (n^2 m), d_i / (3 k)): d_i is the smallest
    gap at i above the floor and k the number of clusters of x_j, so no point
    moves by d_i / 3 and no new collision arises.  Transport then fixes one
    coordinate per shear, since the interpolated correction lands every point
    at once.  Targets with ties are rank-spread within eps / 2 first.

    With return_trace, each record names its kind; separation records also
    carry their stage's step count and the collisions at i before and after.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    m, n = xs.shape
    if ys.shape != xs.shape:
        raise ValueError("xs and ys must have equal shape")
    if len(np.unique(xs, axis=0)) != m:
        raise ValueError("points must be pairwise distinct")

    ys_used = spread_targets(ys, eps)
    pts = xs.copy()
    sched = Schedule((), n)
    trace = []
    # Separation: one shear per (coordinate, read) pair.  Gaps below the
    # noise floor count as collisions, and shifts of at least 8 floors keep
    # later interpolation abscissae at bounded slopes.
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            ranks_i = _clusters(pts[:, i])
            before = m - 1 - int(ranks_i.max())
            if before == 0:
                break
            ranks_j = _clusters(pts[:, j])
            k = int(ranks_j.max()) + 1
            if len(np.unique(ranks_i * k + ranks_j)) == m - before:
                continue  # every pair colliding at i also collides at j
            gaps = np.diff(np.sort(pts[:, i]))
            gaps = gaps[gaps >= NOISE_FLOOR]
            d_i = float(gaps.min()) if len(gaps) else math.inf
            delta = min(eps / (n * n * m), d_i / (3.0 * k))
            if delta < 8.0 * NOISE_FLOOR:
                raise RuntimeError(
                    f"separation shift {delta:.3g} at coordinate {i} is below 8 noise "
                    f"floors ({NOISE_FLOOR:g} each): min(eps / (n^2 m), d_i / (3 k)) with "
                    f"eps {eps:g}, m {m}, smallest gap d_i {d_i:.3g}, k {k} clusters")
            _, nodes = np.unique(ranks_j, return_index=True)
            stage = _difference_shear(pts[nodes, j], delta * np.arange(k), i, j, n)
            new_pts = flow_eval(stage, pts)
            after = m - 1 - int(_clusters(new_pts[:, i]).max())
            if after >= before:
                raise RuntimeError(f"separation shear did not reduce collisions "
                                   f"at coordinate {i} reading {j}")
            trace.append({"kind": "separate", "coord": i, "read": j, "steps": len(stage),
                          "collisions_before": before, "collisions_after": after})
            pts = new_pts
            sched = sched.then(stage)
        if _clusters(pts[:, i]).max() + 1 < m:
            raise RuntimeError(f"coordinate {i} still has collisions after all reads")

    # Transport: one difference shear per coordinate.
    for i in range(n):
        j = (i + 1) % n
        absc = pts[:, j]
        if _clusters(absc).max() + 1 < m:
            raise RuntimeError(f"controlling coordinate {j} not separated at pass {i}")
        corr = ys_used[:, i] - pts[:, i]
        stage = _difference_shear(absc, corr, i, j, n)
        pts = flow_eval(stage, pts)
        resid = float(np.max(np.abs(pts[:, i] - ys_used[:, i])))
        if resid > max(1e-9, eps * 1e-3):
            raise RuntimeError(f"tensor transport residual {resid:.3g} at coordinate {i}")
        trace.append({"kind": "transport", "coord": i, "residual": resid})
        sched = sched.then(stage)

    final_gap = float(np.max(np.linalg.norm(pts - ys, axis=1)))
    if final_gap > eps:
        raise RuntimeError(f"tensor transport landed {final_gap:.3g} > eps from targets")
    if return_trace:
        return sched, trace
    return sched


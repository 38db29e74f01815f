"""1D constructive approximation: transport, point matching, uniform approximation.

The point-matching induction drives one new point to its target per stage,
protecting already-matched points by squeezing them into the zero interval of
a translated well (where the drive field vanishes identically) and undoing
the squeeze with the exact inverse flow afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DEFAULT_CONFIG, IntegratorConfig, Schedule, flow_eval
from .families import WellFunction, negated_field
from .targets import Target1D

__all__ = [
    "PointMatchProblem",
    "MatchResult",
    "ApproxResult",
    "NotIncreasingError",
    "TransportError",
    "transport_time",
    "match_points",
    "match_points_result",
    "approx_increasing",
]

MAX_PARTITION = 8192


class TransportError(ValueError):
    """Transport preconditions violated (wrong side or inside the zero interval)."""


class NotIncreasingError(ValueError):
    """Target fails the increasing probe; flow maps cannot approximate it."""


def _well_upper_sign(well: WellFunction) -> int:
    return well.outside_sign.right


def _place_well(well: WellFunction, upper_edge: float) -> WellFunction:
    """Translate the well so its zero interval's upper edge sits at upper_edge."""
    return well.translated(upper_edge - well.q2)


def _step_flow(field, x: float, tau: float, cfg: IntegratorConfig) -> float:
    if tau == 0.0:
        return float(x)
    if cfg.method == "closed_form_if_available" and field.pwl is not None:
        return field.pwl.flow_scalar(x, tau)
    out = flow_eval(Schedule(((field, tau),), 1), np.array([x]), cfg)
    return float(out[0])


TIME_CAP = 1e4


def _bisect_time(advance, start: float, target: float, direction: int,
                 tol_z: float, time_cap: float = TIME_CAP):
    """Smallest tau with advance(tau) past target; advance monotone in tau.

    direction is the sign of (target - start).  Returns (tau, endpoint).
    Brackets beyond the time cap are rejected: they arise when a well with
    nonzero interior slack (smoothed walls) must resolve separations finer
    than its smoothing scale, and the numeric integrator is not trustworthy
    over such horizons.
    """
    if start == target:
        return 0.0, start
    hi = 1.0
    while True:
        z = advance(hi)
        if (z - target) * direction >= 0.0:
            break
        hi *= 2.0
        if hi > time_cap:
            raise TransportError(
                f"drive time exceeds the cap {time_cap:g}; the well's slack or "
                "wall smoothing is too coarse for the requested separations")
    lo = 0.0
    z_best, t_best = advance(hi), hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        z = advance(mid)
        if abs(z - target) <= tol_z:
            return mid, z
        if (z - target) * direction < 0.0:
            lo = mid
        else:
            hi = mid
            z_best, t_best = z, mid
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    return t_best, z_best


def transport_time(well: WellFunction, from_x: float, to_x: float,
                   root_tol: float = 1e-10,
                   cfg: IntegratorConfig = DEFAULT_CONFIG):
    """Drive direction and time mapping from_x to to_x with +/- the well field.

    Both points must lie strictly on the same side of the well's zero
    interval; the zero interval itself is a wall of fixed points.
    """
    if well.dim != 1:
        raise ValueError("transport_time is a 1D operation")
    q1, q2 = well.q1, well.q2
    if from_x == to_x:
        return +1, 0.0
    sides = []
    for x in (from_x, to_x):
        if x > q2:
            sides.append(+1)
        elif x < q1:
            sides.append(-1)
        else:
            sides.append(0)
    if sides[0] == 0:
        raise TransportError(f"from_x={from_x} lies inside the closed zero interval "
                             f"[{q1}, {q2}]: it is a fixed point of the drive")
    if sides[1] == 0 or sides[0] != sides[1]:
        raise TransportError(f"points {from_x}, {to_x} must lie strictly on the same "
                             f"side of the zero interval [{q1}, {q2}]")
    out_sign = well.outside_sign.right if sides[0] > 0 else well.outside_sign.left
    direction = 1 if to_x > from_x else -1
    sign = direction * out_sign
    field = well.field if sign > 0 else negated_field(well.field)

    def advance(tau):
        return _step_flow(field, from_x, tau, cfg)

    tau, z = _bisect_time(advance, from_x, to_x, direction, root_tol)
    if abs(z - to_x) > max(root_tol, 1e-9 * max(1.0, abs(to_x))):
        raise TransportError(f"bisection stalled at |z - target| = {abs(z - to_x):.3g}")
    return sign, tau


@dataclass(frozen=True)
class PointMatchProblem:
    xs: np.ndarray
    ys: np.ndarray
    well: WellFunction
    eps: float

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 1:
            raise ValueError("xs and ys must be 1D arrays of equal positive length")
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
            raise ValueError("xs and ys must be strictly increasing")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.well.dim != 1:
            raise ValueError("need a 1D well")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def m(self) -> int:
        return len(self.xs)


@dataclass(frozen=True)
class MatchResult:
    schedule: Schedule
    stage_ends: tuple  # step count after each induction stage
    achieved: np.ndarray  # final positions of the source points

    @property
    def stage_count(self) -> int:
        return len(self.stage_ends)


def match_points_result(p: PointMatchProblem,
                        cfg: IntegratorConfig = DEFAULT_CONFIG) -> MatchResult:
    """Inductive construction mapping xs[k] to ys[k] within p.eps for all k.

    Stage k drives the image of xs[k] to ys[k] after squeezing the already
    matched points into the drive well's zero interval, then undoes the
    squeeze exactly.  Per-stage root tolerance is eps / (10 m) so stage
    errors cannot accumulate past eps.

    The squeeze parks points close to the drive well's zero interval, so the
    well's walls must grow promptly away from it (the ReLU and soft-threshold
    wells grow linearly).  Walls with a dead zone, like the smoothed
    staircase surrogates, stall there and fail the drive-time cap.
    """
    xs, ys, well0 = p.xs, p.ys, p.well
    m = p.m
    stage_tol = p.eps / (10.0 * m)
    s_out = _well_upper_sign(well0)
    width = well0.q2 - well0.q1
    lo = float(min(xs[0], ys[0]))
    hi = float(max(xs[-1], ys[-1]))
    span = hi - lo if hi > lo else 1.0
    margin = 0.1 * span

    steps: list = []
    stage_ends: list = []
    pos = xs.astype(float).copy()

    def push(field, tau):
        steps.append((field, float(tau)))
        nonlocal pos
        pos = field.exact_flow(pos[:, None], tau)[:, 0] if field.exact_flow is not None \
            else flow_eval(Schedule(((field, tau),), 1), pos[:, None], cfg)[:, 0]

    for k in range(m):
        cur = float(pos[k])
        target = float(ys[k])
        if abs(cur - target) <= stage_tol:
            stage_ends.append(len(steps))
            continue
        if k == 0:
            drive_well = _place_well(well0, min(cur, target) - margin)
            sign, tau = transport_time(drive_well, cur, target, root_tol=stage_tol, cfg=cfg)
            fld = drive_well.field if sign > 0 else negated_field(drive_well.field)
            push(fld, tau)
            stage_ends.append(len(steps))
            continue

        active_min = float(min(pos[: k + 1].min(), target))
        e_drive = active_min - margin
        drive_well = _place_well(well0, e_drive)
        squeeze_well = _place_well(well0, e_drive - 0.5 * width)
        flipped = negated_field(squeeze_well.field)
        sq_field, unsq_field = ((squeeze_well.field, flipped) if s_out < 0
                                else (flipped, squeeze_well.field))

        # Squeeze long enough that every matched point drops below the drive
        # well's zero interval edge, but short enough that the moving point
        # and its target stay above it.
        p_max = float(pos[:k].max())
        movers_min = min(cur, target)
        t1, _ = _bisect_time(lambda t: _step_flow(sq_field, p_max, t, cfg),
                             p_max, e_drive, -1, 0.0)
        t2, _ = _bisect_time(lambda t: _step_flow(sq_field, movers_min, t, cfg),
                             movers_min, e_drive, -1, 0.0)
        t_sq = 0.5 * (t1 + t2)
        if not (_step_flow(sq_field, p_max, t_sq, cfg) < e_drive
                and _step_flow(sq_field, movers_min, t_sq, cfg) > e_drive):
            raise TransportError("squeeze window degenerate; points too close to separate")

        sq_cur = _step_flow(sq_field, cur, t_sq, cfg)
        direction = 1 if target > cur else -1
        drv_sign = direction * s_out
        drv_field = drive_well.field if drv_sign > 0 else negated_field(drive_well.field)

        def final_position(tau):
            z = _step_flow(drv_field, sq_cur, tau, cfg)
            return _step_flow(unsq_field, z, t_sq, cfg)

        tau, z_end = _bisect_time(final_position, cur, target, direction, stage_tol)
        if abs(z_end - target) > stage_tol:
            raise TransportError(f"stage {k}: bisection reached |err|={abs(z_end - target):.3g} "
                                 f"> stage tolerance {stage_tol:.3g}")
        push(sq_field, t_sq)
        push(drv_field, tau)
        push(unsq_field, t_sq)
        stage_ends.append(len(steps))

    sched = Schedule(tuple(steps), 1)
    achieved = flow_eval(sched, xs[:, None], cfg)[:, 0]
    errs = np.abs(achieved - ys)
    if np.any(errs > p.eps):
        raise TransportError(f"match verification failed: max error {errs.max():.3g} > {p.eps:.3g}")
    return MatchResult(schedule=sched, stage_ends=tuple(stage_ends), achieved=achieved)


def match_points(p: PointMatchProblem, cfg: IntegratorConfig = DEFAULT_CONFIG) -> Schedule:
    return match_points_result(p, cfg).schedule


@dataclass(frozen=True)
class ApproxResult:
    schedule: Schedule
    nodes: np.ndarray
    node_values: np.ndarray
    mesh: float
    omega_estimate: float
    point_tol: float

    @property
    def error_budget(self) -> float:
        """Sup-grid error never exceeds omega(mesh) + point-match tolerance."""
        return self.omega_estimate + self.point_tol


def _estimate_omega(phi, a: float, b: float, pieces: int) -> float:
    """Empirical modulus of continuity at mesh (b-a)/pieces on a 10x finer grid."""
    fine = np.linspace(a, b, 10 * pieces + 1)
    vals = np.asarray(phi(fine), dtype=float)
    return float(np.max(np.abs(vals[10:] - vals[:-10])))


def approx_increasing(phi, eps: float, well: WellFunction,
                      domain: Optional[tuple] = None,
                      probe_points: int = 1024,
                      cfg: IntegratorConfig = DEFAULT_CONFIG) -> ApproxResult:
    """Uniformly approximate an increasing continuous target by a flow map.

    Splits the error budget evenly: the partition mesh is refined until the
    empirical modulus of continuity is below eps/2, then the nodes are matched
    within eps/2.  Rejects targets that fail the increasing probe, since 1D
    flow maps (and their limits) are increasing.
    """
    if isinstance(phi, Target1D):
        if domain is None:
            domain = phi.domain
        fn = phi.fn
    else:
        fn = phi
        if domain is None:
            domain = (0.0, 1.0)
    a, b = float(domain[0]), float(domain[1])
    if not eps > 0:
        raise ValueError("eps must be positive")
    grid = np.linspace(a, b, probe_points + 1)
    vals = np.asarray(fn(grid), dtype=float)
    scale = max(1.0, float(np.max(np.abs(vals))))
    if np.any(np.diff(vals) < -1e-12 * scale):
        raise NotIncreasingError(
            "target decreases on the probe grid; 1D flow maps are increasing, "
            "so no schedule can approximate it")

    pieces = 4
    while True:
        omega = _estimate_omega(fn, a, b, pieces)
        if omega <= eps / 2.0:
            break
        if pieces >= MAX_PARTITION:
            raise ValueError(f"partition budget exhausted at {pieces} pieces "
                             f"(omega estimate {omega:.3g} > eps/2)")
        pieces *= 2

    nodes = np.linspace(a, b, pieces + 1)
    node_vals = np.asarray(fn(nodes), dtype=float).copy()
    # Flats in the target give equal node values; nudge them apart by an
    # amount far below the matching tolerance.
    tiny = max(1e-13, eps * 1e-8)
    for i in range(1, len(node_vals)):
        if node_vals[i] <= node_vals[i - 1]:
            node_vals[i] = node_vals[i - 1] + tiny
    problem = PointMatchProblem(xs=nodes, ys=node_vals, well=well, eps=eps / 2.0)
    result = match_points_result(problem, cfg)
    return ApproxResult(schedule=result.schedule, nodes=nodes, node_values=node_vals,
                        mesh=(b - a) / pieces, omega_estimate=omega, point_tol=eps / 2.0)

"""1D constructive approximation: transport, point matching, uniform approximation.

The point-matching induction drives one new point to its target per stage,
protecting already-matched points by squeezing them into the zero interval of
a translated well (where the drive field vanishes identically) and undoing
the squeeze with the exact inverse flow afterwards.  Uniform approximation
does not match points: it compiles the increasing piecewise-linear
interpolant of the target's partition nodes exactly (``compile_pwl_map``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Schedule, flow_eval
from .families import WellFunction, negated_field
from .rates import compile_pwl_map
from .targets import Target1D

__all__ = [
    "PointMatchProblem",
    "MatchResult",
    "ApproxResult",
    "NotIncreasingError",
    "TransportError",
    "transport_time",
    "match_points_result",
    "approx_increasing",
]

MAX_PARTITION = 8192


class TransportError(ValueError):
    """Transport preconditions violated (wrong side or inside the zero interval)."""


class NotIncreasingError(ValueError):
    """Target fails the increasing probe; flow maps cannot approximate it."""


def _place_well(well: WellFunction, upper_edge: float) -> WellFunction:
    """Translate the well so its zero interval's upper edge sits at upper_edge."""
    return well.translated(upper_edge - well.q2)


def transport_time(well: WellFunction, from_x: float, to_x: float):
    """Drive direction and time mapping from_x to to_x with +/- the well field.

    Both points must lie strictly on the same side of the well's zero
    interval; the zero interval itself is a wall of fixed points.  The time
    is the closed-form hitting time of the driving field's piece tables.
    """
    if well.dim != 1:
        raise ValueError("transport_time is a 1D operation")
    well.require_piece_tables("transport_time")
    q1, q2 = well.q1, well.q2
    if from_x == to_x:
        return +1, 0.0
    side0, side1 = ((x > q2) - (x < q1) for x in (from_x, to_x))
    if side0 == 0:
        raise TransportError(f"from_x={from_x} lies inside the closed zero interval "
                             f"[{q1}, {q2}]: it is a fixed point of the drive")
    if side1 != side0:
        raise TransportError(f"points {from_x}, {to_x} must lie strictly on the same "
                             f"side of the zero interval [{q1}, {q2}]")
    out_sign = well.outside_sign.right if side0 > 0 else well.outside_sign.left
    sign = (1 if to_x > from_x else -1) * out_sign
    field = well.field if sign > 0 else negated_field(well.field)
    return sign, _drive_time(field, from_x, to_x)


def _drive_time(field, z0: float, z1: float) -> float:
    tau = field.pwl.hitting_time(z0, z1)
    if not math.isfinite(tau):
        raise TransportError(f"{z1} is not reachable from {z0}: an equilibrium of the "
                             "drive lies between them")
    return tau


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
        self.well.require_piece_tables("point matching")
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


def match_points_result(p: PointMatchProblem) -> MatchResult:
    """Inductive construction mapping xs[k] to ys[k] within p.eps for all k.

    Stage k drives the image of xs[k] to ys[k] after squeezing the already
    matched points into the drive well's zero interval, then undoes the
    squeeze exactly.  Squeeze and drive times are closed-form hitting times:
    since the unsqueeze inverts the squeeze S, the drive takes S(cur) to
    S(target).  Each stage must land within eps / (10 m) of its target, so
    stage errors cannot accumulate past eps; the whole schedule is then
    verified with ``flow_eval``.

    The squeeze parks points close to the drive well's zero interval, so the
    well's walls must grow promptly away from it; ``PointMatchProblem``
    admits only wells with piece tables (the ReLU and soft-threshold wells,
    which grow linearly).
    """
    xs, ys, well0 = p.xs, p.ys, p.well
    m = p.m
    stage_tol = p.eps / (10.0 * m)
    s_out = well0.outside_sign.right
    width = well0.q2 - well0.q1
    lo = float(min(xs[0], ys[0]))
    hi = float(max(xs[-1], ys[-1]))
    span = hi - lo if hi > lo else 1.0
    margin = 0.1 * span

    steps: list = []
    stage_ends: list = []
    pos = xs.astype(float).copy()

    for k in range(m):
        cur = float(pos[k])
        target = float(ys[k])
        if abs(cur - target) <= stage_tol:
            stage_ends.append(len(steps))
            continue
        if k == 0:
            drive_well = _place_well(well0, min(cur, target) - margin)
            sign, tau = transport_time(drive_well, cur, target)
            fld = drive_well.field if sign > 0 else negated_field(drive_well.field)
            z_end = fld.pwl.flow_scalar(cur, tau)
            stage = [(fld, tau)]
        else:
            active_min = float(min(pos[: k + 1].min(), target))
            e_drive = active_min - margin
            drive_well = _place_well(well0, e_drive)
            squeeze_well = _place_well(well0, e_drive - 0.5 * width)
            flipped = negated_field(squeeze_well.field)
            sq_field, unsq_field = ((squeeze_well.field, flipped) if s_out < 0
                                    else (flipped, squeeze_well.field))
            sq, unsq = sq_field.pwl, unsq_field.pwl

            # Squeeze long enough that every matched point drops below the
            # drive well's zero interval edge, but short enough that the
            # moving point and its target stay above it.
            p_max = float(pos[:k].max())
            movers_min = min(cur, target)
            t_sq = 0.5 * (sq.hitting_time(p_max, e_drive) + sq.hitting_time(movers_min, e_drive))
            if not (sq.flow_scalar(p_max, t_sq) < e_drive < sq.flow_scalar(movers_min, t_sq)):
                raise TransportError("squeeze window degenerate; points too close to separate")

            sq_cur = sq.flow_scalar(cur, t_sq)
            drv_sign = (1 if target > cur else -1) * s_out
            drv_field = drive_well.field if drv_sign > 0 else negated_field(drive_well.field)
            tau = _drive_time(drv_field, sq_cur, sq.flow_scalar(target, t_sq))
            z_end = unsq.flow_scalar(drv_field.pwl.flow_scalar(sq_cur, tau), t_sq)
            stage = [(sq_field, t_sq), (drv_field, tau), (unsq_field, t_sq)]
        if abs(z_end - target) > stage_tol:
            raise TransportError(f"stage {k}: drive landed at |err|={abs(z_end - target):.3g} "
                                 f"> stage tolerance {stage_tol:.3g}")
        for fld, tau in stage:
            steps.append((fld, tau))
            pos = fld.pwl.flow(pos, tau)
        stage_ends.append(len(steps))

    sched = Schedule(tuple(steps), 1)
    achieved = flow_eval(sched, xs[:, None])[:, 0]
    errs = np.abs(achieved - ys)
    if np.any(errs > p.eps):
        raise TransportError(f"match verification failed: max error {errs.max():.3g} > {p.eps:.3g}")
    return MatchResult(schedule=sched, stage_ends=tuple(stage_ends), achieved=achieved)


@dataclass(frozen=True)
class ApproxResult:
    """A compiled flow map within ``error_budget`` of the target on its domain.

    ``nodes`` are the ends of the partition's cells, or the target's own
    breakpoints when it carries them; ``node_values`` are the values the
    schedule interpolates (flats nudged strictly increasing).  Of the
    accepted cells, ``cells_certified`` met eps/2 by their node increment
    alone and ``cells_sampled`` by the bound from their interior samples
    (see ``_partition``); both are 0 when the target's breakpoints were
    compiled.  ``error_budget`` bounds the sup error on the domain: the
    largest per-cell bound (at most eps/2) plus the schedule's measured
    distance from the target's values at the nodes and a few ulps.
    """

    schedule: Schedule
    nodes: np.ndarray
    node_values: np.ndarray
    cells_certified: int
    cells_sampled: int
    error_budget: float


# A level samples at most this many gaps in all, so memory stays bounded
# however small eps is.
MAX_LEVEL_GAPS = 1 << 18


def _partition(fn, a: float, b: float, eps: float, rise: float, scale: float):
    """Bisect [a, b] until the interpolant is within eps/2 on every cell.

    Returns the nodes, the largest per-cell bound and the numbers of
    certified and sampled cells.  ``rise`` is at least the target's increase
    over [a, b].

    Each level samples every open cell at its ends and evenly between, in
    one call of fn.  On each gap between two samples y_k <= y_k+1 an
    increasing target lies between them, and the interpolant between its
    own values I_k <= I_k+1 there, so max(y_k+1 - I_k, I_k+1 - y_k) bounds
    the error on the gap.  The largest of these over the cell is its bound,
    never above its node increment.  A cell is accepted when its bound is at
    most eps/2: certified when its node increment alone already is, sampled
    when only its interior samples show it.  Any other cell is bisected.
    """
    lo, hi = np.array([a]), np.array([b])
    done_lo = []
    max_bound, n_cert, accepted = 0.0, 0, 0
    while len(lo):
        # No cell rises more than ``rise``, so with this many gaps none rises
        # more than eps/4, unless the level's sample budget binds.  The count
        # is odd, so no interior sample lands on the dyadic probe grid or on
        # a deeper cell's end.
        need = math.ceil(4.0 * rise / eps)
        gaps = min(need, MAX_LEVEL_GAPS // len(lo)) | 1
        t = np.linspace(0.0, 1.0, gaps + 1)
        x = lo[:, None] + (hi - lo)[:, None] * t
        x[:, -1] = hi
        y = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
        if not np.all(np.isfinite(y)):
            raise ValueError("target is not finite on its domain")
        # The probe grid misses dips narrower than its spacing; the cells'
        # own samples may not, and the bound needs an increasing target.
        if np.any(np.diff(y, axis=1) < -1e-12 * scale):
            raise NotIncreasingError(
                "target decreases between the samples of a partition cell; 1D flow "
                "maps are increasing, so no schedule can approximate it")
        inc = y[:, -1] - y[:, 0]
        chord = y[:, :1] + inc[:, None] * t
        bound = np.maximum(y[:, 1:] - chord[:, :-1], chord[:, 1:] - y[:, :-1]).max(axis=1)
        ok = bound <= eps / 2.0
        done_lo.append(lo[ok])
        max_bound = max(max_bound, float(np.max(bound[ok], initial=0.0)))
        n_cert += int(np.count_nonzero(ok & (inc <= eps / 2.0)))
        accepted += int(np.count_nonzero(ok))
        lo, hi, rise = lo[~ok], hi[~ok], float(np.max(inc[~ok], initial=0.0))
        if accepted + 2 * len(lo) > MAX_PARTITION:
            msg = f"partition needs more than MAX_PARTITION = {MAX_PARTITION} cells at eps {eps:g}"
            if gaps < need:  # the sample budget, not the cell cap, is what binds
                msg += (f"; MAX_LEVEL_GAPS = {MAX_LEVEL_GAPS} capped its last level at {gaps} "
                        f"gaps per cell where {need} were needed")
            raise ValueError(msg)
        mid = 0.5 * (lo + hi)
        stuck = (mid <= lo) | (mid >= hi)
        if stuck.any():
            k = int(np.argmax(stuck))
            raise ValueError(f"cell [{float(lo[k])!r}, {float(hi[k])!r}] cannot be bisected "
                             f"at eps {eps:g}; is the target continuous there?")
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    nodes = np.append(np.sort(np.concatenate(done_lo)), b)
    return nodes, max_bound, n_cert, accepted - n_cert


def _require_relu_well(well: WellFunction) -> None:
    """The compiled map is built from its own ReLU stages; a given well must
    be a 1D ReLU well: piece tables, and every kink an equilibrium."""
    well.require_piece_tables("approx_increasing")
    if well.dim != 1 or not well.field.pwl.fixes_kinks:
        raise ValueError("approx_increasing takes only a 1D ReLU well, every kink an "
                         f"equilibrium; {well.label or 'this well'} is not one")


def approx_increasing(phi, eps: float, well: Optional[WellFunction] = None,
                      domain: Optional[tuple] = None) -> ApproxResult:
    """Uniformly approximate an increasing continuous target by a flow map.

    Bisects the domain's cells until the interpolant is within eps/2 of the
    target on each, by a bound that holds for any increasing target (see
    ``_partition``; at most ``MAX_PARTITION`` cells), then compiles the
    nodes' piecewise-linear interpolant exactly with ``compile_pwl_map``.
    A ``Target1D`` that carries ``pwl`` data skips the partition: its own
    breakpoints are compiled, exact up to roundoff.
    Rejects targets that fail the increasing probe or whose cell samples
    decrease, since 1D flow maps (and their limits) are increasing.
    ``well``, if given, must be a 1D ReLU well; the map does not depend on it.
    """
    pwl = None
    if isinstance(phi, Target1D):
        if domain is None or tuple(map(float, domain)) == phi.domain:
            domain, pwl = phi.domain, phi.pwl
        fn = phi.fn
    else:
        fn = phi
        if domain is None:
            domain = (0.0, 1.0)
    a, b = float(domain[0]), float(domain[1])
    if not eps > 0:
        raise ValueError("eps must be positive")
    if well is not None:
        _require_relu_well(well)
    if pwl is not None:
        if np.any(pwl.slopes <= 0):
            raise NotIncreasingError("target has a piece of slope <= 0; 1D flow maps "
                                     "are increasing, so no schedule can approximate it")
        nodes, max_bound, n_cert, n_sampled = pwl.breakpoints, 0.0, 0, 0
    else:
        grid = np.linspace(a, b, 1025)  # the dyadic probe grid: 1024 cells
        vals = np.asarray(fn(grid), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("target is not finite on its domain")
        scale = max(1.0, float(np.max(np.abs(vals))))
        if np.any(np.diff(vals) < -1e-12 * scale):
            raise NotIncreasingError(
                "target decreases on the probe grid; 1D flow maps are increasing, "
                "so no schedule can approximate it")
        nodes, max_bound, n_cert, n_sampled = _partition(fn, a, b, eps,
                                                         float(vals[-1] - vals[0]), scale)

    target_vals = np.asarray(fn(nodes), dtype=float)
    node_vals = target_vals.copy()
    # Flats in the target give equal node values; nudge them apart by an
    # amount far below the tolerance, and by at least one ulp.
    tiny = max(1e-13, eps * 1e-8)
    for i in range(1, len(node_vals)):
        prev = node_vals[i - 1]
        if node_vals[i] <= prev:
            node_vals[i] = max(prev + tiny, np.nextafter(prev, np.inf))
    sched = compile_pwl_map(nodes[1:-1], np.diff(node_vals) / np.diff(nodes),
                            nodes[0], node_vals[0], cover=(a, b))
    # Up to roundoff the compiled map is affine between the nodes and 0 (the
    # scaling pair's kink), so its distance from the interpolant peaks at one
    # of them; the nudge moved the interpolant off the target at the nodes.
    check = np.union1d(nodes, [0.0]) if a < 0.0 < b else nodes
    at = flow_eval(sched, check[:, None])[:, 0]
    roundoff = (float(np.max(np.abs(at - np.interp(check, nodes, node_vals))))
                + float(np.max(np.abs(node_vals - target_vals)))
                + 8.0 * float(np.spacing(max(1.0, float(np.max(np.abs(node_vals)))))))
    return ApproxResult(schedule=sched, nodes=nodes, node_values=node_vals,
                        cells_certified=n_cert, cells_sampled=n_sampled,
                        error_budget=max_bound + roundoff)

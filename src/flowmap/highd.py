"""The n >= 2 approximation pipeline: grid, shrink, separate, transport, assemble.

The flow map is built as (separation + transport) composed after an
approximate shrink map.  The shrink map flattens each grid cell onto its
lower corner; the transport then carries each corner to the target value of
its cell.  All stages are frozen-argument drives of a translated well, so the
composed schedule evaluates exactly, and the error budget of the assembly is
asserted on the numbers actually used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Schedule, flow_eval
from .families import AffineRestriction, WellFunction, apply_restriction, relu_field
from .rates import compile_pwl_map
from .targets import TargetSpec
from .tensor import tensor_field, tensor_transport
from .util import collision_counts, mc_lp_error, require_lp_args, spread_targets

__all__ = [
    "GridTarget",
    "ShrinkSpec",
    "PipelineError",
    "PipelineReport",
    "build_grid_target",
    "build_contraction",
    "collision_counts",
    "separate_points",
    "transport_points",
    "approximate_lp",
]


class PipelineError(RuntimeError):
    """A budget became infeasible; the message names the binding constraint."""


# -- grid targets -------------------------------------------------------------


@dataclass(frozen=True)
class GridTarget:
    """Cell-constant surrogate: value F(cell center) on each of the N^n cells."""

    N: int
    n: int
    values: np.ndarray  # shape (N^n, m), row order = lexicographic multi-index
    corners: np.ndarray  # shape (N^n, n), lower corner i/N of each cell
    certified_error: float  # quadrature estimate of ||grid - F||_Lp(K)
    p: float

    @property
    def value_sup(self) -> float:
        return float(np.max(np.linalg.norm(self.values, axis=1)))


def _multi_indices(N: int, n: int) -> np.ndarray:
    grids = np.meshgrid(*([np.arange(N)] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def build_grid_target(F: TargetSpec, N: int, p: float) -> GridTarget:
    """Grid surrogate with a tensor-quadrature estimate of its L^p error."""
    n = F.n
    if not np.allclose(F.domain, np.tile([[0.0, 1.0]], (n, 1))):
        raise PipelineError("pipeline expects targets on the unit box "
                            "(pre-scale general boxes)")
    idx = _multi_indices(N, n)
    corners = idx / N
    centers = (idx + 0.5) / N
    values = np.asarray(F(centers), dtype=float).reshape(len(idx), -1)
    # Per-cell quadrature of |F - value|^p on a 6^n subgrid.
    offs = (_multi_indices(6, n) + 0.5) / (6 * N)
    total = 0.0
    cellvol = (1.0 / N) ** n
    for row, corner in enumerate(corners):
        pts = corner + offs
        gap = np.asarray(F(pts), dtype=float).reshape(len(pts), -1) - values[row]
        total += float(np.mean(np.linalg.norm(gap, axis=1) ** p)) * cellvol
    err = total ** (1.0 / p)
    return GridTarget(N=N, n=n, values=values, corners=corners,
                      certified_error=float(err), p=p)


# -- shrink maps --------------------------------------------------------------


@dataclass(frozen=True)
class ShrinkSpec:
    alpha: float
    N: int
    eps1: float  # sup-norm tolerance for the flow-map realization

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1); alpha = 1 gives a "
                             "discontinuous staircase and is rejected")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if not self.eps1 > 0:
            raise ValueError("eps1 must be positive")


def build_contraction(spec: ShrinkSpec, well: WellFunction, n: Optional[int] = None) -> Schedule:
    """Flow-map approximation of the coordinatewise shrink map h x ... x h.

    Each 1D stage becomes one tensor step, which applies it to every
    coordinate at once (flows on different coordinates commute).  The flats
    are given a tiny positive slope beta = eps1 N / alpha and the riser
    slope makes every cell gain exactly 1/N, so the flat of cell i starts at
    value i/N.  The resulting strictly increasing staircase, extended with
    slope 1 outside [0, 1], is compiled exactly, so the sup gap to the ideal
    shrink map is exactly alpha beta / N per coordinate.  The well must be
    ReLU-built (piece tables); others raise ValueError before any work.
    """
    well.require_piece_tables("build_contraction")
    if n is None:
        n = well.dim
    eps_coord = 0.9 * spec.eps1 / math.sqrt(n)
    alpha, N = spec.alpha, spec.N
    beta = min(0.25, eps_coord * N / alpha)
    riser = (1.0 - alpha * beta) / (1.0 - alpha)
    cells = np.arange(N, dtype=float)
    knots = np.concatenate([[0.0], np.column_stack([cells + alpha, cells + 1.0]).ravel() / N])
    slopes = np.concatenate([[1.0], np.tile([beta, riser], N), [1.0]])
    sched_1d = compile_pwl_map(knots, slopes, 0.0, 0.0)
    return Schedule(tuple((tensor_field(f, n), tau) for f, tau in sched_1d.steps), n)


# -- point separation ---------------------------------------------------------


def _frozen_drive(well: WellFunction, drive: int, read: int, sign: float,
                  a: float, offset: float):
    """Field D f(A z + b): drive one coordinate, read another (or the same).

    Components of b other than ``read`` sit at the zero-box center so they
    contribute nothing to the well's value.
    """
    n = well.dim
    D = np.zeros(n)
    D[drive] = sign
    A = np.zeros((n, n))
    A[read, read] = a
    b = well.zero_box.mean(axis=1)
    b[read] = offset
    return apply_restriction(well.field, AffineRestriction(D, A, b))


def separate_points(points, well: WellFunction, eps: float, return_trace: bool = False):
    """Make all coordinate projections pairwise distinct, moving points <= eps.

    One stage per (coordinate, controlling coordinate) pair: all points are
    pushed along the collision coordinate with velocities read from a
    distinct-valued coordinate, so every colliding pair that differs there
    separates at once.  The collision count strictly decreases per stage and
    no stage creates new collisions (displacements are capped at a third of
    the smallest nonzero gap).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float)).copy()
    m, n = pts.shape
    if well.dim != n:
        raise ValueError("well dim mismatch")
    if len(np.unique(pts, axis=0)) != m:
        raise ValueError("points must be pairwise distinct")
    cap_budget = eps / max(1, n * (n - 1))
    steps = []
    trace = []
    u_r = {j: float(well.zero_box[j, 1]) for j in range(n)}
    for i in range(n):
        for read in range(n):
            if read == i:
                continue
            before = collision_counts(pts)[i]
            if before == 0:
                break
            # Does some colliding pair differ at `read`?
            groups: dict = {}
            productive = False
            for k in range(m):
                groups.setdefault(pts[k, i], []).append(k)
            for members in groups.values():
                if len(members) > 1 and len(np.unique(pts[members, read])) > 1:
                    productive = True
            if not productive:
                continue
            vals_i = np.unique(pts[:, i])
            gaps = np.diff(vals_i)
            d = float(gaps.min()) if len(gaps) else math.inf
            cap = min(cap_budget, d / 3.0)
            scale = max(1.0, float(np.ptp(pts[:, read])))
            offset = u_r[read] + 0.1 * scale - float(pts[:, read].min())
            fld = _frozen_drive(well, drive=i, read=read, sign=1.0, a=1.0, offset=offset)
            vel = fld.eval(pts)[:, i]
            vmax = float(np.max(np.abs(vel)))
            if vmax == 0.0:
                raise PipelineError("separation drive has zero velocity everywhere")
            t = 0.5 * cap / vmax
            pts = fld.exact_flow(pts, t)
            after = collision_counts(pts)[i]
            if after >= before:
                raise PipelineError("separation stage failed to reduce collisions")
            steps.append((fld, t))
            trace.append({"coord": i, "read": read, "collisions_before": before,
                          "collisions_after": after,
                          "max_displacement": float(t * vmax)})
        if collision_counts(pts)[i] != 0:
            raise PipelineError(f"coordinate {i} still has collisions after all reads")
    sched = Schedule(tuple(steps), n)
    if return_trace:
        return sched, trace
    return sched


# -- point transport ----------------------------------------------------------


def _clipped_drive(well: WellFunction, drive: int, read: int, sign: float,
                   a: float, offset: float, knee: float):
    """Stage field for transport: drive one coordinate with clipped well walls.

    The scalar wall min(relu(s - u_r), knee) + min(relu(u_l - s), knee) at
    s = a z_read + offset vanishes exactly on the well's zero interval and is
    exactly flat beyond the knee, so bystanders on the plateau co-move rigidly
    with the active point.  Each clipped wall is an average of four members of
    the ReLU family, hence stays inside its convex hull.
    """
    n = well.dim
    u_l, u_r = float(well.zero_box[read, 0]), float(well.zero_box[read, 1])
    c = sign / (2.0 * n)
    V = np.zeros((n, 4))
    V[drive, :] = [c, -c, c, -c]
    W = np.zeros((4, n))
    W[:, read] = [a, a, -a, -a]
    b = np.array([offset - u_r, offset - u_r - knee, u_l - offset, u_l - offset - knee])
    return relu_field(V, W, b, label=f"clip_drive[{drive}<{read}]")


def _require_relu_well(well: WellFunction) -> None:
    if well.field.tag != "relu":
        raise PipelineError("transport stages require a ReLU-built well "
                            "(clipped walls are composed from its family)")


def transport_points(xs, ys, well: WellFunction, eps: float, return_trace: bool = False):
    """Carry coordinate-distinct sources onto targets, one coordinate at a time.

    Coordinate i is steered by coordinate j = (i mod n) + 1 in m stages keyed
    by the sorted controlling values.  The stage offsets place every already
    matched point inside the zero interval (exactly frozen) and the active
    point on the clipped wall's plateau, where its velocity is constant; the
    stage time is the needed displacement over that velocity.  Unmatched
    bystanders sit on the same plateau and co-move rigidly, which keeps all
    intermediate positions at the scale of the data.  Targets that are not
    coordinate-distinct receive a deterministic rank spread folded into half
    the tolerance.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    m, n = xs.shape
    if ys.shape != xs.shape:
        raise ValueError("xs and ys must have equal shape")
    if well.dim != n:
        raise ValueError("well dim mismatch")
    for i in range(n):
        if len(np.unique(xs[:, i])) != m:
            raise ValueError(f"source coordinate {i} values must be pairwise distinct")
    box = well.zero_box
    widths = box[:, 1] - box[:, 0]
    if np.any(widths <= 0):
        raise ValueError("degenerate well geometry: zero interval has no width")
    _require_relu_well(well)

    ys_used = spread_targets(ys, eps)
    if any(c > 0 for c in collision_counts(ys_used)):
        raise PipelineError("could not perturb targets to coordinate-distinct")

    pts = xs.copy()
    steps = []
    trace = []
    for i in range(n):
        j = (i + 1) % n
        order = np.argsort(pts[:, j])
        xj = pts[order, j]
        if len(np.unique(xj)) != m:
            raise PipelineError(f"controlling coordinate {j} not distinct at pass {i}")
        gmin = float(np.min(np.diff(xj))) if m > 1 else 1.0
        span = float(xj[-1] - xj[0])
        width = float(widths[j])
        u_r = float(box[j, 1])
        a = min(1.0, 0.9 * width / (span + gmin)) if (span + gmin) > 0 else 1.0
        knee = a * gmin / 3.0
        plateau_vel = knee / (2.0 * n)
        for rank, k in enumerate(order):
            # Active slot on the plateau, matched slots at least one knee
            # inside the zero interval.
            r_k = u_r + 2.0 * knee - a * float(pts[k, j])
            needed = float(ys_used[k, i] - pts[k, i])
            fld = _clipped_drive(well, drive=i, read=j,
                                 sign=math.copysign(1.0, needed) if needed else 1.0,
                                 a=a, offset=r_k, knee=knee)
            if needed == 0.0:
                steps.append((fld, 0.0))
                continue
            w_k = float(fld.eval(pts[k])[i])
            if abs(abs(w_k) - plateau_vel) > 1e-12 * max(1.0, plateau_vel):
                raise PipelineError("active point missed the wall plateau")
            t_k = needed / w_k
            if t_k < 0:
                raise PipelineError("negative stage time")
            vel = fld.eval(pts)[:, i]
            if rank and float(np.max(np.abs(vel[order[:rank]]))) != 0.0:
                raise PipelineError("matched points are not exactly frozen")
            pts = fld.exact_flow(pts, t_k)
            steps.append((fld, t_k))
            trace.append({"coord": i, "stage_point": int(k), "time": float(t_k),
                          "velocity": float(w_k)})
        gap = float(np.max(np.abs(pts[:, i] - ys_used[:, i])))
        if gap > max(1e-9, eps * 1e-3):
            raise PipelineError(f"coordinate {i} transport residual {gap:.3g}")
        # The map is exactly rigid within this radius of every matched point
        # (frozen margin and plateau margin are both one knee wide).
        trace.append({"pass": i, "gmin": gmin, "rigidity": gmin / 6.0})
    final_gap = float(np.max(np.linalg.norm(pts - ys, axis=1)))
    if final_gap > eps:
        raise PipelineError(f"transport landed {final_gap:.3g} away from targets > eps")
    sched = Schedule(tuple(steps), n)
    if return_trace:
        return sched, trace
    return sched


# -- assembled pipeline -------------------------------------------------------

# Without grid_N, approximate_lp searches the grid sizes N = 2..MAX_GRID_N.
MAX_GRID_N = 6


@dataclass
class PipelineReport:
    n: int
    p: float
    eps: float
    N: int
    alpha: float
    eps1: float
    eps2: float
    total_time_T: float
    stages: dict
    measured_lp_error: float
    mc_stderr: float
    mc_samples: int
    seed: int
    grid_error: float
    omega_check: float
    leak_bound: float
    lipschitz_probe: float
    diam_probe: float
    target: str = ""

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in (
            "n", "p", "eps", "N", "alpha", "eps1", "eps2", "total_time_T",
            "stages", "measured_lp_error", "mc_stderr", "mc_samples", "seed",
            "grid_error", "omega_check", "leak_bound", "lipschitz_probe",
            "diam_probe", "target")}


def _probe_directions(n: int, seed: int = 1234) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dirs = [np.eye(n)[k] for k in range(n)] + [-np.eye(n)[k] for k in range(n)]
    extra = rng.normal(size=(4, n))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    return np.vstack(dirs + [extra])


def approximate_lp(F: TargetSpec, eps: float, p: float, well: WellFunction,
                   g=None, grid_N: Optional[int] = None, alpha: Optional[float] = None,
                   seed: int = 0, mc_samples: int = 100_000,
                   transport_backend: str = "frozen"):
    """Build a flow map within L^p(K) distance eps of the target.

    Error budget (asserted on the numbers actually used): eps/2 for the grid
    surrogate, eps/8 for the point match, eps/8 for the shrink-map modulus
    term, eps/4 for the mass leaked outside the shrunken cells.  Returns
    (schedule, report); the report carries the measured Monte-Carlo error at
    the fixed seed.  The grid is ``grid_N`` per axis if given, else the
    first N = 2..MAX_GRID_N whose surrogate is within eps/2; a PipelineError
    names the N <= MAX_GRID_N cap when none is.  Raises PipelineError up front
    unless the well is ReLU-built, and ValueError on a bad p or mc_samples.
    """
    require_lp_args(p, mc_samples)
    n = F.n
    if n < 2:
        raise ValueError("the pipeline needs n >= 2; use the 1D machinery otherwise")
    if transport_backend not in ("frozen", "tensor"):
        raise ValueError(f"unknown transport backend {transport_backend!r}")
    # Frozen transport and, at these tolerances, the contraction of either
    # backend need a ReLU-built well: fail before the grid stage.
    _require_relu_well(well)

    # 1. Grid surrogate within eps/2.
    grid = None
    for N in ([grid_N] if grid_N else range(2, MAX_GRID_N + 1)):
        cand = build_grid_target(F, N, p)
        if cand.certified_error <= eps / 2.0 or grid_N:
            grid = cand
            break
    if grid is None:
        raise PipelineError(f"grid budget infeasible: error {cand.certified_error:.3g} "
                            f"> eps/2 at the N <= {MAX_GRID_N} cap")
    if grid.certified_error > eps / 2.0:
        raise PipelineError(f"grid budget infeasible at N={grid.N}: "
                            f"{grid.certified_error:.3g} > eps/2")
    N = grid.N

    # 2. Target values, lifted through the terminal map if present.
    if g is not None:
        from .terminal import lift_targets
        targets = lift_targets(grid.values, g)
    else:
        if grid.values.shape[1] != n:
            raise PipelineError("target output dim != n requires a terminal map g")
        targets = grid.values

    eps1 = eps / (8.0 * N ** (n - n / p))

    # 3. Transport map psi = transport o separate.
    rigidity = math.inf
    if transport_backend == "tensor":
        psi, trace = tensor_transport(grid.corners, targets, eps=eps1, return_trace=True)
        sep_steps = sum(rec["steps"] for rec in trace if rec["kind"] == "separate")
    else:
        sep = separate_points(grid.corners, well, eps=1.0 / (4.0 * N))
        moved = flow_eval(sep, grid.corners)
        tr, tr_trace = transport_points(moved, targets, well, eps=eps1, return_trace=True)
        rigidity = min((rec["rigidity"] for rec in tr_trace if "rigidity" in rec),
                       default=math.inf)
        psi = sep.then(tr)
        sep_steps = len(sep)

    corner_images = flow_eval(psi, grid.corners)
    match_gap = float(np.max(np.linalg.norm(corner_images - targets, axis=1)))
    if match_gap > eps1:
        raise PipelineError(f"point match {match_gap:.3g} > eps1 {eps1:.3g}")

    # 4. Probe the local stretching of psi near the corners.
    dirs = _probe_directions(n)

    def omega_at(r: float) -> float:
        probes = (grid.corners[:, None, :] + r * dirs[None, :, :]).reshape(-1, n)
        images = flow_eval(psi, probes).reshape(len(grid.corners), len(dirs), n)
        return float(np.max(np.linalg.norm(images - corner_images[:, None, :], axis=2)))

    lhat = max(omega_at(1e-6) / 1e-6, omega_at(1e-4) / 1e-4)
    # Within the rigidity radius the transport is an exact translation near
    # every corner, so start there and shrink until the measured modulus fits.
    eps2 = min(0.01, rigidity / 2.0, eps / (16.0 * max(lhat, 1.0)))
    omega_meas = omega_at(eps2)
    for _ in range(60):
        if omega_meas <= eps / 8.0:
            break
        eps2 /= 4.0
        omega_meas = omega_at(eps2)
    else:
        raise PipelineError("could not find eps2 meeting the modulus budget")
    if eps2 < 1e-14:
        raise PipelineError(f"modulus budget needs eps2 = {eps2:.3g}, below float resolution")

    # 5. Diameter of psi over the reachable neighborhood of the unit box.
    pad = 0.01
    axes = [np.linspace(-pad, 1.0 + pad, 7)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    boxgrid = np.stack([g_.ravel() for g_ in mesh], axis=1)
    img = np.vstack([flow_eval(psi, boxgrid), corner_images])
    d2 = ((img[:, None, :] - img[None, :, :]) ** 2).sum(axis=2)
    diam = float(np.sqrt(np.max(d2)))

    # 6. Shrink fraction alpha from the leak budget.
    leak_den = diam + grid.value_sup + 1e-9
    c_leak = min(0.5, (eps / 4.0) / leak_den)
    alpha_used = alpha if alpha is not None else min(0.999999, (1.0 - c_leak) ** (1.0 / n))
    if not (0.0 < alpha_used < 1.0):
        raise PipelineError(f"alpha {alpha_used} outside (0, 1)")
    leak_bound = (1.0 - alpha_used ** n) * leak_den

    # 7. Contraction within eps2.
    spec = ShrinkSpec(alpha=alpha_used, N=N, eps1=eps2)
    contraction = build_contraction(spec, well, n=n)

    # 8. Budget check on the numbers actually used.
    if omega_meas + N ** (n - n / p) * eps1 > eps / 4.0 + 1e-12:
        raise PipelineError(f"modulus budget violated: {omega_meas:.3g} + "
                            f"{N ** (n - n / p) * eps1:.3g} > eps/4")
    if leak_bound > eps / 4.0 + 1e-12:
        raise PipelineError(f"leak budget violated: {leak_bound:.3g} > eps/4")

    full = contraction.then(psi)

    # 9. Measured error at the fixed seed.
    if g is not None:
        def approx_fn(x):
            return g(flow_eval(full, x))
    else:
        def approx_fn(x):
            return flow_eval(full, x)
    measured = mc_lp_error(approx_fn, F.fn, F.domain, p, mc_samples, seed)

    report = PipelineReport(
        n=n, p=p, eps=eps, N=N, alpha=alpha_used, eps1=eps1, eps2=eps2,
        total_time_T=full.total_time,
        stages={"separation": sep_steps, "transport": len(psi) - sep_steps,
                "contraction": len(contraction)},
        measured_lp_error=measured.value, mc_stderr=measured.stderr,
        mc_samples=mc_samples, seed=seed, grid_error=grid.certified_error,
        omega_check=omega_meas, leak_bound=leak_bound, lipschitz_probe=lhat,
        diam_probe=diam, target=F.name)
    return full, report

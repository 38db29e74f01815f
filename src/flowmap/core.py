"""Vector fields, piecewise-constant schedules, and flow-map evaluation.

A Schedule is a finite list of (field, duration) pairs; its flow map is the
composition of the autonomous flows of the individual fields, applied in list
order.  Evaluation prefers exact closed forms where a field carries one
(ReLU-built fields that read one coordinate do, and so do tensor fields of
scalar fields that do) and otherwise falls back to adaptive RK45.  A run of
consecutive steps whose scalar piecewise-linear flows fix every kink is an
increasing piecewise-linear map per coordinate, and a run of commuting
frozen drives (each moves one coordinate at a velocity read from another
that no step of the run moves) adds one piecewise-linear function of the
read coordinate to each driven one.  Each run is composed exactly into
breakpoints and values and evaluated with one interpolation per column,
which moves results at roundoff against stepping the points.

RK45 is scipy's ``solve_ivp``, imported on the first RK45 step, so that
importing flowmap loads no scipy module.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "VectorField",
    "Schedule",
    "IntegratorConfig",
    "DEFAULT_CONFIG",
    "FlowEvalError",
    "BlowupError",
    "StepBudgetError",
    "flow_eval",
    "jacobian_sign_check",
    "JacobianRecord",
    "schedule_to_json",
    "schedule_from_json",
    "register_family",
]

BLOWUP_LIMIT = 1e12


class FlowEvalError(RuntimeError):
    """Flow evaluation failed."""


class BlowupError(FlowEvalError):
    """State left the |z| <= 1e12 guard box or became non-finite."""


class StepBudgetError(FlowEvalError):
    """Integrator exhausted its step budget (stiffness or misconfiguration)."""


@dataclass(frozen=True)
class VectorField:
    """An evaluable map R^dim -> R^dim with Lipschitz metadata.

    ``eval`` must accept arrays of shape (..., dim) and return the same shape.
    ``lipschitz_bound`` is an upper bound supplied by the constructor, possibly
    conservative.
    ``exact_flow``, when present, maps (x of shape (..., dim), tau) to the
    exact endpoint of the autonomous flow and is preferred by the default
    integrator config.  ``pwl`` is the scalar ``PwlField`` whose flow the field
    applies to every coordinate (for dim 1, the field itself), and None for
    every other field; ``exact_flow`` runs through this same object.
    ``frozen_drive`` is True when the field reads none of the coordinates it
    drives (its velocity is constant along its flow); only ``relu_field`` sets
    it.  ``drive`` is (i, j, g) when the field drives the single coordinate i
    at velocity g(z_j) read from one other coordinate j, with g a scalar
    ``PwlField``; ``exact_flow`` then runs through this same g.
    """

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    lipschitz_bound: float
    label: str = ""
    tag: Optional[str] = None
    params: Optional[dict] = None
    exact_flow: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    pwl: Optional[object] = None
    frozen_drive: bool = False
    drive: Optional[tuple] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if not self.lipschitz_bound >= 0:
            raise ValueError("lipschitz_bound must be nonnegative")


def _is_number(value) -> bool:  # a real number, not bool or str
    return type(value) is float or (isinstance(value, numbers.Real)
                                    and not isinstance(value, bool))


def require_duration(value, what: str) -> float:
    """``value`` as a float: a real number, not bool or str, finite and >= 0.

    The rule for a schedule step's tau and for an export run's delta.
    """
    if not (_is_number(value) and value >= 0.0 and math.isfinite(value)):
        raise ValueError(f"{what} must be a finite nonnegative number, got {value!r}")
    return float(value)


def require_number_lists(value, depth: int, what: str) -> None:
    """Raise a ValueError naming the entry unless ``value`` is a list of
    numbers (``depth`` 1) or of equally long such lists (``depth`` 2)."""
    _require_json_type(value, list, what)
    for i, item in enumerate(value):
        if depth > 1:
            require_number_lists(item, depth - 1, f"{what}[{i}]")
        elif not _is_number(item):
            raise ValueError(f"{what}[{i}] must be a number, got {item!r}")
    if depth > 1 and len(set(map(len, value))) > 1:
        raise ValueError(f"{what} rows differ in length: {[len(r) for r in value]}")


@dataclass(frozen=True)
class Schedule:
    """Piecewise-constant control: ordered (field, duration) steps."""

    steps: tuple
    dim: int

    def __post_init__(self):
        if (isinstance(self.dim, bool) or not isinstance(self.dim, numbers.Integral)
                or self.dim < 1):
            raise ValueError(f"schedule dim must be an integer >= 1, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        steps = tuple((f, require_duration(t, "step duration")) for f, t in self.steps)
        object.__setattr__(self, "steps", steps)
        for f, _ in steps:
            if f.dim != self.dim:
                raise ValueError(f"field dim {f.dim} != schedule dim {self.dim}")

    @property
    def total_time(self) -> float:
        return math.fsum(t for _, t in self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def then(self, other: "Schedule") -> "Schedule":
        """Concatenation: self applied first, then other."""
        if other.dim != self.dim:
            raise ValueError("dim mismatch")
        return Schedule(self.steps + other.steps, self.dim)


@dataclass(frozen=True)
class IntegratorConfig:
    """Numeric integration settings.

    method: "closed_form_if_available" uses a field's exact flow when it has
    one and RK45 otherwise; "rk45_adaptive" always integrates numerically.
    """

    method: str = "closed_form_if_available"
    tol: float = 1e-10
    max_steps: int = 200_000

    def __post_init__(self):
        if self.method not in ("closed_form_if_available", "rk45_adaptive"):
            raise ValueError(f"unknown method {self.method!r}")
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


DEFAULT_CONFIG = IntegratorConfig()


def _check_state(z: np.ndarray) -> None:
    peak = np.max(np.abs(z))  # one reduction; NaN if any entry is NaN
    if not math.isfinite(peak):
        raise BlowupError("non-finite state during flow evaluation")
    if peak > BLOWUP_LIMIT:
        raise BlowupError(f"state magnitude exceeded guard {BLOWUP_LIMIT:g}")


def _rk45_step_field(f: VectorField, z: np.ndarray, tau: float, cfg: IntegratorConfig) -> np.ndarray:
    from scipy.integrate import solve_ivp

    shape = z.shape
    nfev = 0
    budget = 8 * cfg.max_steps

    def rhs(_t, y):
        nonlocal nfev
        nfev += 1
        if nfev > budget:
            raise StepBudgetError(f"max_steps={cfg.max_steps} exhausted (nfev>{budget})")
        state = y.reshape(shape)
        _check_state(state)
        return f.eval(state).ravel()

    sol = solve_ivp(rhs, (0.0, tau), z.ravel(), method="RK45",
                    rtol=cfg.tol, atol=cfg.tol * 1e-3)
    if not sol.success:
        raise FlowEvalError(f"RK45 failed on field {f.label!r}: {sol.message}")
    return sol.y[:, -1].reshape(shape)


def flow_eval(sched: Schedule, x, cfg: IntegratorConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Endpoint of the schedule's flow from x.

    x may be a single point of shape (dim,) or a batch (..., dim); the result
    is a new C-contiguous array of the same shape, and an empty batch is
    returned as a copy.  Deterministic for a fixed config.

    Under ``closed_form_if_available``, two kinds of run of consecutive live
    steps are composed exactly and evaluated by interpolation, which moves
    results at roundoff against stepping every point through every step:
    each maximal run of steps whose ``pwl`` fixes every kink becomes one
    increasing piecewise-linear map per coordinate, and each maximal run of
    single-pair frozen drives (``VectorField.drive``) in which no step reads
    a coordinate that another drives becomes one piecewise-linear increment
    z_i += G_ij(z_j) per (driven, read) pair.  Every other step runs as its
    own step, on the points in x's layout.

    The state is kept column-major, one contiguous row per coordinate, so
    that every column a run reads, writes or reduces is contiguous.  The
    guard holds after every step, run steps included: a step of its own is
    followed by a check of the whole state, and a run is checked on its own
    tables, which bound every column it moves (the images of its hull ends,
    base + peak of its drives) up to the rounding of one interpolation.  A
    column that no run moves keeps its entry values, so the entry pass that
    rejects a non-finite x also takes max|x|; when that is beyond the guard,
    the whole state is checked after the first live step.
    """
    x = np.asarray(x, dtype=float)
    dim = sched.dim
    if x.shape[-1:] != (dim,):
        raise ValueError(f"point shape {x.shape} incompatible with dim {dim}")
    if x.size == 0:
        return x.copy()
    z = x.reshape(-1, dim).T.copy()  # z[k] is coordinate k of every point
    peak = np.max(np.abs(z))  # one reduction; NaN if any entry is NaN
    if not math.isfinite(peak):
        raise ValueError("initial point must be finite")
    unchecked = peak > BLOWUP_LIMIT
    exact = cfg.method == "closed_form_if_available"
    for kind, run in _runs(sched.steps, exact):
        if kind is None:
            f, tau = run[0]
            rows = np.ascontiguousarray(z.T).reshape(x.shape)
            if exact and f.exact_flow is not None:
                rows = f.exact_flow(rows, tau)
            else:
                rows = _rk45_step_field(f, rows, tau, cfg)
            _check_state(rows)
            z = rows.reshape(-1, dim).T.copy()
        else:
            kind(z, run)
            if unchecked:
                _check_state(z)
        unchecked = False
    return np.ascontiguousarray(z.T).reshape(x.shape)


def _runs(steps, exact: bool):
    """The live (tau > 0) steps as (evaluator, run) pairs, in order.

    A run is a list of (drive, tau) for ``_drive_run``, of (pwl, tau) for
    ``_compiled_run``, and a single (field, tau) when the evaluator is None.
    """
    kind, run = None, []
    for f, tau in steps:
        if tau == 0.0:
            continue
        step_kind = _run_kind(f) if exact else None
        if (step_kind is None or step_kind is not kind
                or (kind is _drive_run and not _commutes(f.drive, run))):
            if run:
                yield kind, run
            kind, run = step_kind, []
        run.append((f.drive if kind is _drive_run else f.pwl if kind is _compiled_run else f,
                    tau))
    if run:
        yield kind, run


def _run_kind(f: VectorField):
    """The run evaluator that takes f's exact flow, or None for a step of its own."""
    if f.drive is not None:
        return _drive_run
    if f.exact_flow is not None and f.pwl is not None and f.pwl.fixes_kinks:
        return _compiled_run
    return None


def _commutes(drive: tuple, run: list) -> bool:
    """True when the drive reads no coordinate the run drives and drives none it reads."""
    i, j, _ = drive
    return all(j != i2 and i != j2 for (i2, j2, _), _ in run)


def _drive_run(z: np.ndarray, run: list) -> None:
    """Apply a run of commuting single-pair frozen drives ((i, j, g), tau) to
    the column-major state z in place.

    No step reads a coordinate that the run drives, so every column read
    stays fixed, and the steps on one (driven i, read j) pair compose into
    z_i += G(z_j) with G = sum_k tau_k g_k, a scalar piecewise-linear map.
    Its breakpoints B on column j's hull are the hull's ends and the steps'
    kinks inside it; the partial sums S_k(B) are taken step by step and
    S_L is interpolated, which moves results at roundoff against stepping.
    A partial sum takes its extremes at B, so max |z_i| plus the peaks of
    its pairs' partial sums bound every intermediate state; only a step
    where that bound crosses the guard (or is not finite) has its exact
    partial state checked.
    """
    pairs: dict = {}
    for (i, j, g), tau in run:
        pairs.setdefault((i, j), []).append((g, tau))
    tables = {}
    for (i, j), steps in pairs.items():
        col = z[j]
        lo, hi = col.min(), col.max()
        kinks = np.concatenate([g.kinks for g, _ in steps])
        B = np.unique(np.concatenate(([lo, hi], kinks[(kinks > lo) & (kinks < hi)])))
        S = np.cumsum([tau * g(B) for g, tau in steps], axis=0)
        tables[i, j] = (B, S, np.abs(S).max(axis=1))

    def increment(i, j, k):
        B, S, _ = tables[i, j]
        return np.interp(z[j], B, S[k])

    base = {i: np.max(np.abs(z[i])) for i, _ in pairs}
    done = dict.fromkeys(pairs, -1)
    for (i, j, _), _ in run:
        done[i, j] += 1
        mine = [(i2, j2) for i2, j2 in pairs if i2 == i and done[i2, j2] >= 0]
        if not base[i] + sum(tables[key][2][done[key]] for key in mine) <= BLOWUP_LIMIT:
            _check_state(z[i] + sum(increment(*key, done[key]) for key in mine))
    for i, j in pairs:
        z[i] += increment(i, j, -1)


def _compiled_run(z: np.ndarray, run: list) -> None:
    """Apply a run of (PwlField, tau) steps that fix their kinks to the
    column-major state z in place, column by column.

    Each step maps every piece between its kinks onto itself by an affine
    map, and only the tails beyond its outermost kinks move (the pieces
    between two equilibria are still).  On the column's hull, breakpoints B
    and their images Y are built step by step: the step's kinks inside the
    image are pulled back through the map so far and inserted, then Y is
    flowed by the step's own kernel, so each Y entry is bitwise the stepwise
    image of its breakpoint and the guard sees the column's extremes after
    every step.  One interpolation then finishes the column.
    """
    for k, col in enumerate(z):
        B = Y = np.array([col.min(), col.max()])  # Y is B while the map is the identity
        for pwl, tau in run:
            kinks = pwl.kinks
            new = kinks[(kinks > Y[0]) & (kinks < Y[-1])]
            at = np.searchsorted(Y, new)
            fresh = Y[at] != new
            if fresh.any():
                new, at = new[fresh], at[fresh]
                if Y is B:
                    B = Y = np.insert(Y, at, new)
                else:
                    B, Y = np.insert(B, at, np.interp(new, Y, B)), np.insert(Y, at, new)
            moving = (Y < kinks[0]) | (Y > kinks[-1]) if len(kinks) else np.ones(len(Y), bool)
            if moving.any():
                Y = Y.copy() if Y is B else Y
                Y[moving] = pwl.flow(Y[moving], tau)
            _check_state(Y[[0, -1]])
        if Y is not B:
            z[k] = np.interp(col, B, Y)


@dataclass(frozen=True)
class JacobianRecord:
    point: np.ndarray
    det: float
    positive: Optional[bool]  # None when |det| < 1e-9


def jacobian_sign_check(sched: Schedule, points, h: float = 1e-5):
    """Central-difference Jacobian determinant of the flow map at each point.

    The 2 dim probes of every point are evaluated in one ``flow_eval`` call.
    Determinants below 1e-9 in magnitude are reported as indeterminate
    (positive=None) rather than as failures of positivity.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = sched.dim
    step = h * np.eye(n)
    probes = np.concatenate([pts[:, None] + step, pts[:, None] - step], axis=1)
    images = flow_eval(sched, probes)
    jacs = (images[:, :n] - images[:, n:]).transpose(0, 2, 1) / (2.0 * h)
    out = []
    for p, det in zip(pts, np.linalg.det(jacs).tolist()):
        positive = None if abs(det) < 1e-9 else bool(det > 0)
        out.append(JacobianRecord(point=p.copy(), det=det, positive=positive))
    return out


# -- schedule serialization ------------------------------------------------

_FAMILY_REGISTRY: dict = {}


def register_family(tag: str, builder: Callable[[dict], VectorField]) -> None:
    """Register a deserializer for a family tag used in Schedule JSON."""
    _FAMILY_REGISTRY[tag] = builder


def field_to_json(f: VectorField) -> dict:
    if f.tag is None or f.params is None:
        raise ValueError(f"field {f.label!r} carries no serializable family tag")
    return {"family_tag": f.tag, "params": f.params}


def _require_json_type(value, kind: type, what: str) -> None:
    """Raise a ValueError naming ``what`` unless ``value`` is a ``kind``."""
    if not isinstance(value, kind):
        name = {dict: "an object", list: "a list", str: "a string"}[kind]
        raise ValueError(f"{what} must be {name}, got {type(value).__name__}") from None


def field_from_json(doc: dict) -> VectorField:
    """Field from its {family_tag, params} document.

    A missing key, or a document, tag or params of the wrong JSON type, is a
    ValueError naming it.  Types are checked only after a TypeError, so a
    well-formed document pays nothing for them.
    """
    try:
        tag, params = doc["family_tag"], doc["params"]
        if tag not in _FAMILY_REGISTRY:
            raise ValueError(f"unknown family tag {tag!r}; registered tags: "
                             + ", ".join(sorted(_FAMILY_REGISTRY)))
        return _FAMILY_REGISTRY[tag](params)
    except KeyError as e:
        raise ValueError(f"field document or its params lack key {e}") from None
    except TypeError:
        _require_json_type(doc, dict, "field document")
        _require_json_type(doc["family_tag"], str, "field key 'family_tag'")
        _require_json_type(doc["params"], dict, "field key 'params'")
        raise


def schedule_to_json(sched: Schedule) -> dict:
    """JSON document {dim, steps: [{family_tag, params, tau}]}.

    Numeric parameters round-trip bit-faithfully (Python floats serialize via
    repr, which is exact for finite doubles).
    """
    return {
        "dim": sched.dim,
        "steps": [dict(field_to_json(f), tau=t) for f, t in sched.steps],
    }


def schedule_from_json(doc: dict) -> Schedule:
    """Schedule from its {dim, steps} document.

    A missing key, or a document, ``steps`` list, step or params of the
    wrong JSON type, is a ValueError naming it (see ``field_from_json``).
    """
    try:
        _require_json_type(doc["steps"], list, "schedule key 'steps'")
        steps = tuple((field_from_json(s), s["tau"]) for s in doc["steps"])
        dim = doc["dim"]
    except KeyError as e:
        raise ValueError(f"schedule document or step lacks key {e}") from None
    except TypeError:
        _require_json_type(doc, dict, "schedule document")
        raise
    return Schedule(steps, dim)

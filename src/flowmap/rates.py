"""1D approximation rates: total variation of the log-derivative as time budget.

An increasing map whose log-derivative is piecewise constant is exactly a
composition of normalized ReLU flows, one stage per slope jump, with total
flow time equal to the total variation of the log-derivative (extension
convention: the function is extended by zero outside [0, 1], so the boundary
values count as jumps).  Below the required budget, the best approximation is
governed by the relaxed projection problem onto the TV ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import Schedule
from .families import field_from_terms_1d
from .targets import Target1D
from .util import exact_sum

__all__ = [
    "LogDerivativeProfile",
    "GammaResult",
    "tv_log_derivative",
    "compile_heaviside_flow",
    "translation_gadget",
    "compile_pwl_map",
    "gamma_relaxed",
    "budgeted_schedule",
    "rate_sweep",
]


@dataclass(frozen=True)
class LogDerivativeProfile:
    """Piecewise view of u = ln(phi') on [0, 1].

    For kind "pwc" the representation is exact: ``values`` on the intervals
    split at ``breakpoints``.  For kind "sampled" the values live on a fine
    uniform grid and all derived quantities are numeric estimates.  ``tv`` is
    the extended total variation (boundary jumps included); ``tv_interior``
    omits them.  Both are correctly rounded sums of the jumps' sizes.
    """

    kind: str
    breakpoints: np.ndarray  # interior breakpoints, strictly inside (0, 1)
    values: np.ndarray

    @cached_property
    def tv(self) -> float:
        return exact_sum(np.abs(np.diff(self.values, prepend=0.0, append=0.0)))

    @cached_property
    def tv_interior(self) -> float:
        return exact_sum(np.abs(np.diff(self.values)))

    @property
    def pieces(self) -> int:
        return len(self.values)

    def max_slope(self) -> float:
        """sup of phi' = exp(max u)."""
        return float(np.exp(np.max(self.values)))

    def is_monotone(self) -> bool:
        d = np.diff(self.values)
        return bool(np.all(d >= 0) or np.all(d <= 0))


# The sampled TV estimate doubles its grid up to this many derivative samples.
TV_MAX_SAMPLES = 200_001


def tv_log_derivative(target: Target1D) -> LogDerivativeProfile:
    """Total variation of ln(phi') under the extension convention.

    Exact for piecewise-linear targets carrying breakpoints; otherwise a
    Riemann estimate on an adaptively refined grid of derivative samples.
    Rejects targets whose derivative is not strictly positive.
    """
    if target.domain != (0.0, 1.0):
        raise ValueError("rate machinery expects targets on [0, 1]")
    if target.pwl is not None:
        slopes = target.pwl.slopes
        if np.any(slopes <= 0):
            raise ValueError("phi' <= 0: log-derivative undefined")
        return LogDerivativeProfile("pwc", target.pwl.breakpoints[1:-1], np.log(slopes))
    if target.derivative is not None:
        def du(x):
            return np.asarray(target.derivative(x), dtype=float)
    else:
        def du(x, h=1e-7):
            x = np.asarray(x, dtype=float)
            return (np.asarray(target.fn(np.minimum(x + h, 1.0)), dtype=float)
                    - np.asarray(target.fn(np.maximum(x - h, 0.0)), dtype=float)) \
                / (np.minimum(x + h, 1.0) - np.maximum(x - h, 0.0))

    prev = None
    n = max(2001, TV_MAX_SAMPLES // 4)
    while True:
        xs = np.linspace(0.0, 1.0, n)
        d = du(xs)
        if np.any(d <= 0):
            raise ValueError("phi' <= 0 detected on the sample grid")
        profile = LogDerivativeProfile("sampled", xs[1:-1], np.log(d))
        tv = profile.tv
        if prev is not None and abs(tv - prev) <= 1e-7 * max(1.0, tv):
            break
        if n >= TV_MAX_SAMPLES:
            break
        prev = tv
        n = min(TV_MAX_SAMPLES, 2 * n)
    return profile


def _extended_slopes(values: np.ndarray) -> np.ndarray:
    """Slopes exp(u) on the pieces of [0, 1], with slope 1 on either side."""
    return np.concatenate([[1.0], np.exp(values), [1.0]])


def _breakpoint_images(bp: np.ndarray, sl: np.ndarray) -> np.ndarray:
    """M at each breakpoint, M being the map that is sl[0] x left of the first
    breakpoint and has slope sl[j] on region j: prefix sums of slopes times
    region widths."""
    return np.cumsum(np.concatenate([sl[0] * bp[:1], sl[1:-1] * np.diff(bp)]))


def compile_heaviside_flow(profile: LogDerivativeProfile, anchor: float) -> Schedule:
    """Exact flow-map realization of an increasing target with pwc ln(phi').

    ``compile_pwl_map`` compiles the target extended with slope 1 outside
    [0, 1], so each jump of u, the boundary jumps at 0 and 1 included,
    becomes one stage sign(a) relu(x - kink) for time |a|, a being the log
    of the slope ratio: the total stage time is the extended TV up to that
    roundoff.  Every stage fixes 0, so phi(0) = 0, and a nonzero anchor is
    added by the translation gadget on phi([0, 1]) in time max(0.01,
    |anchor| / 1e6).  Rejects a profile that is not pwc, whose breakpoints
    are not strictly increasing inside (0, 1) with one finite value per
    interval between them.
    """
    if profile.kind != "pwc":
        raise ValueError("exact compilation requires a piecewise-constant profile")
    bp, u = profile.breakpoints, profile.values
    if len(u) != len(bp) + 1:
        raise ValueError(f"pwc profile needs one value per interval: {len(u)} values "
                         f"for {len(bp)} breakpoints")
    if np.any(np.diff(bp) <= 0):
        raise ValueError("pwc profile breakpoints must be strictly increasing")
    if not np.all((bp > 0.0) & (bp < 1.0)):
        raise ValueError("pwc profile breakpoints must lie strictly inside (0, 1)")
    if not np.all(np.isfinite(u)):
        raise ValueError("pwc profile values must be finite")
    return compile_pwl_map(np.concatenate([[0.0], bp, [1.0]]), _extended_slopes(u),
                           0.0, anchor, slack=0.01, cover=(0.0, 1.0))


def translation_gadget(delta: float, slack: float, lo: float = 0.0, hi: float = 1.0) -> Schedule:
    """Two normalized ReLU stages realizing x -> x + delta on [lo, hi].

    A contraction toward a kink followed by an expansion from a far-away kink
    composes to a rigid shift wherever both stages are affine; the kinks are
    placed at lo (positive delta) or hi (negative delta) so this covers
    [lo, hi].  Total time is exactly ``slack`` and the shift error is at the
    roundoff of x + M for M about 2 delta / slack.
    """
    if not slack > 0:
        raise ValueError("slack must be positive")
    if delta == 0.0:
        return Schedule((), 1)
    t = slack / 2.0
    M = abs(delta) / math.expm1(t)
    if delta > 0:
        fields = [
            field_from_terms_1d([(-1.0, 1.0, -lo)], label="shift_contract"),
            field_from_terms_1d([(1.0, 1.0, -lo + M)], label="shift_expand"),
        ]
    else:
        fields = [
            field_from_terms_1d([(1.0, -1.0, hi)], label="shift_contract"),
            field_from_terms_1d([(-1.0, -1.0, hi + M)], label="shift_expand"),
        ]
    return Schedule(((fields[0], t), (fields[1], t)), 1)


def compile_pwl_map(breakpoints, slopes, anchor_x: float, anchor_value: float,
                    slack: float = 1e-3, cover: Optional[tuple] = None) -> Schedule:
    """Exact flow realization of an increasing piecewise-linear map on the line.

    The map has the given interior ``breakpoints`` and one positive slope per
    region (len(slopes) = len(breakpoints) + 1, leftmost region first).  The
    base slope s0 is realized by a global scaling pair, slope ratios by one
    ReLU stage per breakpoint, and the anchor by the translation gadget.
    Before the gadget the flows compose to the map M that is s0 x left of the
    first breakpoint and has slope ``slopes[j]`` on region j.  A stage moves
    nothing left of its kink, so each kink is M at its breakpoint, a prefix
    sum of slopes times region widths; M at ``anchor_x`` and at the ends of
    the gadget's interval come from the same values.  The gadget is rigid on
    the image of ``cover`` = (lo, hi) joined with ``anchor_x``; by default
    +/-(max(|anchor_x|, max |breakpoints|) + 1).  Every argument must be
    finite, and a given cover must have lo < hi.
    """
    bp = np.asarray(breakpoints, dtype=float)
    sl = np.asarray(slopes, dtype=float)
    for name, arg in (("breakpoints", bp), ("slopes", sl), ("anchor_x", anchor_x),
                      ("anchor_value", anchor_value)):
        if not np.all(np.isfinite(arg)):
            raise ValueError(f"{name} must be finite")
    if cover is not None and not -math.inf < cover[0] < cover[1] < math.inf:
        raise ValueError(f"cover must be a finite (lo, hi) with lo < hi, got {cover}")
    if len(sl) != len(bp) + 1:
        raise ValueError("need one slope per region")
    if np.any(sl <= 0):
        raise ValueError("slopes must be positive (increasing map)")
    if np.any(np.diff(bp) <= 0):
        raise ValueError("breakpoints must be strictly increasing")
    steps = []
    s0 = float(sl[0])
    if s0 != 1.0:
        # Global scaling x -> s0 x: expand/contract both half-lines about 0.
        t = abs(math.log(s0))
        sgn = 1.0 if s0 > 1.0 else -1.0
        steps.append((field_from_terms_1d([(sgn, 1.0, 0.0)], label="scale+"), t))
        steps.append((field_from_terms_1d([(-sgn, -1.0, 0.0)], label="scale-"), t))

    kinks = _breakpoint_images(bp, sl)
    for kink, ratio in zip(kinks.tolist(), sl[1:] / sl[:-1]):
        a = math.log(ratio)
        if a != 0.0:  # normalized stage sign(a) relu(x - kink), |v| = |w| = 1
            stage = field_from_terms_1d([(math.copysign(1.0, a), 1.0, -kink)], label="stage")
            steps.append((stage, abs(a)))
    sched = Schedule(tuple(steps), 1)

    def image(x):
        # Region r of x; region 0 is s0 x, region r >= 1 starts at bp[r - 1].
        r = np.searchsorted(bp, x, side="right")
        base_x = np.concatenate([[0.0], bp])[r]
        base_y = np.concatenate([[0.0], kinks])[r]
        return base_y + sl[r] * (x - base_x)

    delta = anchor_value - float(image(anchor_x))
    if delta != 0.0:
        if cover is None:
            reach = max(abs(anchor_x), np.max(np.abs(bp)) if len(bp) else 0.0) + 1.0
            cover = (-reach, reach)
        ends = np.array([min(cover[0], anchor_x), max(cover[1], anchor_x)], dtype=float)
        lo, hi = image(ends).tolist()
        # Large shifts need a proportionally larger slack, else the far kink
        # at ~2*delta/slack costs more roundoff than the shift tolerates.
        slack_used = max(slack, abs(delta) / 1e6)
        sched = sched.then(translation_gadget(delta, slack_used, lo=lo, hi=hi))
    return sched


@dataclass(frozen=True)
class GammaResult:
    value: float
    optimal: bool  # closed-form cases; False means certified upper bound only
    kind: str


def _lazy_tube_cost(values: np.ndarray, gamma: float) -> float:
    """Total variation of the lazy path through the gamma-tube around u.

    The path starts and ends pinned at 0 (extension convention) and moves
    only when forced, which minimizes total movement through ordered interval
    constraints.
    """
    pos = 0.0
    cost = 0.0
    for v in values.tolist():
        lo, hi = v - gamma, v + gamma
        if pos < lo:
            cost += lo - pos
            pos = lo
        elif pos > hi:
            cost += pos - hi
            pos = hi
    return cost + abs(pos)  # final move back to the zero extension


def _tube_radius(values: np.ndarray, T: float) -> float:
    """Bisection from [0, max|u|] for the smallest tube radius whose lazy path
    costs at most T < tv; returns the upper end of the final bracket.  The
    loop stops once the midpoint rounds to an end of the bracket, after
    which the bracket could not change."""
    lo, hi = 0.0, float(np.max(np.abs(values))) + 1e-12
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _lazy_tube_cost(values, mid) <= T:
            hi = mid
        else:
            lo = mid
    return hi


def _lazy_tube_path(values: np.ndarray, gamma: float) -> np.ndarray:
    pos = 0.0
    out = []
    for v in values.tolist():
        lo, hi = v - gamma, v + gamma
        pos = min(max(pos, lo), hi)
        out.append(pos)
    return np.asarray(out)


def gamma_relaxed(profile: LogDerivativeProfile, T: float) -> GammaResult:
    """Best sup-distance from u to the extended-TV ball of radius T.

    A monotone u of one sign has extended TV 2 max |u|, so (tv - T) / 2 is
    optimal: shrinking u toward zero by it spends exactly T, and every v in
    a narrower tube has extended TV >= 2 max |v| > T.  Any other u gets the
    tube radius through which the lazy path costs at most T, as a bound.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    if T >= profile.tv:
        return GammaResult(0.0, True, "feasible")
    u = profile.values
    if profile.is_monotone() and (np.all(u >= 0) or np.all(u <= 0)):
        return GammaResult(max(0.0, 0.5 * (profile.tv - T)), True, "monotone")
    return GammaResult(_tube_radius(u, T), False, "tube_bound")


@dataclass(frozen=True)
class BudgetedApproximation:
    schedule: Schedule
    gamma: float
    quantized_values: np.ndarray
    quantized_tv: float
    budget: float


def budgeted_schedule(target: Target1D, T: float) -> BudgetedApproximation:
    """Constructed approximant within time budget T plus the translation's time.

    Quantizes u toward zero by gamma (monotone u of one sign: soft shrink,
    which is exactly budget-tight; any other u: tube projection), compiles the
    quantized profile exactly, then translates to the anchor.
    """
    profile = _pwc_profile(target)
    res = gamma_relaxed(profile, T)
    v = _quantize(profile, res)
    qprofile = LogDerivativeProfile("pwc", profile.breakpoints, v)
    anchor = float(np.asarray(target.fn(0.0), dtype=float))
    sched = compile_heaviside_flow(qprofile, anchor)
    return BudgetedApproximation(schedule=sched, gamma=res.value, quantized_values=v,
                                 quantized_tv=qprofile.tv, budget=T)


def _pwc_profile(target: Target1D) -> LogDerivativeProfile:
    profile = tv_log_derivative(target)
    if profile.kind != "pwc":
        raise ValueError("budgeted construction requires a piecewise-linear target")
    return profile


def _quantize(profile: LogDerivativeProfile, res: GammaResult) -> np.ndarray:
    """Log-slopes v within gamma of u: shrunk toward zero where the closed
    form holds, else along the lazy path through the gamma-tube.  The
    extended TV of v is then at most the T that ``res`` was found for."""
    if res.kind == "monotone":
        return np.sign(profile.values) * np.maximum(np.abs(profile.values) - res.value, 0.0)
    return _lazy_tube_path(profile.values, res.value)


def rate_sweep(target: Target1D, budgets):
    """Rows (T, gamma, bound, measured sup error) for a budget sweep.

    ``measured`` is the exact sup over [0, 1] of |M - phi|, M being the map
    that ``budgeted_schedule(target, T)`` compiles, up to the roundoff of its
    flow.  M and phi are both piecewise linear with every breakpoint among
    the knots [0, target breakpoints, 1], so the sup is attained at a knot,
    where M is phi(0) plus the prefix sum that ``compile_pwl_map`` places
    its kinks at.  No schedule is built or flowed.
    """
    profile = _pwc_profile(target)
    knots = np.concatenate([[0.0], profile.breakpoints, [1.0]])
    ref = np.asarray(target.fn(knots), dtype=float)
    rows = []
    for T in budgets:
        res = gamma_relaxed(profile, float(T))
        bound = float(math.expm1(res.value) * profile.max_slope())
        img = ref[0] + _breakpoint_images(knots, _extended_slopes(_quantize(profile, res)))
        measured = float(np.max(np.abs(img - ref)))
        rows.append({"T": float(T), "gamma": res.value, "bound": bound, "measured": measured})
    return rows

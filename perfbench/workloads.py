"""The benchmark's two workloads, each made of two parts shaped like CLI paths.

Every part, and every workload, has a ``setup(seed)`` that builds the seeded
inputs (the library only ever sees these) and a ``run(inputs, phases, full)``
that makes the library calls, timing each call under one of the phases
``build``, ``eval`` or ``io``.  A workload runs its two parts one after the
other in each run; its phases, steps and flow time are the sums over them.  ``run`` returns an :class:`Outcome`: the outputs (compared
bit for bit between runs), the correctness checks, and the output size.
With ``full`` set, ``run`` also makes the checks that need extra evaluation
(reloaded schedules and networks against the originals); the runner does
that once, on the untimed warm-up run.

Library functions are looked up through module attributes at call time
(``fm.flow_eval``, never a name bound at import), so the traced run's
wrappers see every call the workload makes.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

import flowmap as fm
import flowmap.targets

# Files are written the way the CLI writes them.
JSON_KW = {"sort_keys": True, "indent": 2}

ONED_EPS = 5e-3
ONED_UNIFORM_POINTS = 4096

ND_EPS = 0.5
ND_MC_SAMPLES = 100_000  # the CLI default
# (target, n, grid N, p)
ND_CASES = (("flip", 2, 4, 1.0), ("swirl", 2, 4, 2.0), ("flip", 3, 3, 1.0))
ND_PROBE_POINTS = 2000

RATE_PIECES = (64, 128, 192, 256)
RATE_BUDGET_FRACTIONS = (0.25, 0.5, 0.75, 1.0)
RATE_EVAL_POINTS = 4096
RATE_EXACT_TOL = 1e-9

EULER_LAYERS = 4096
EULER_SOURCE_PIECES = 64
EULER_ND_MC_SAMPLES = 1000
EULER_GRID_1D = 4097
EULER_POINTS_2D = 10_000


class Phases:
    """Seconds spent per phase; ``with phases("build"): ...`` adds to one."""

    NAMES = ("build", "eval", "io")

    def __init__(self):
        self.seconds = dict.fromkeys(self.NAMES, 0.0)

    @contextmanager
    def __call__(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0


@dataclass
class Outcome:
    outputs: dict  # name -> array, float or str; identical on every run
    checks: dict  # name -> bool
    steps: int
    flow_time_T: float


def same(a, b) -> bool:
    """Bit-for-bit equality of two outputs."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _roundtrip_schedule(sched):
    text = json.dumps(fm.schedule_to_json(sched), **JSON_KW)
    return text, fm.schedule_from_json(json.loads(text))


def random_pwl_target(rng, pieces: int):
    """Increasing PWL target on [0, 1] with i.i.d. N(0, 0.4^2) log-slopes.

    Interior breakpoints are uniform in (0.02, 0.98); the value at 0 is 0, so
    the exact compilation needs no translation gadget.
    """
    inner = np.sort(rng.uniform(0.02, 0.98, pieces - 1))
    data = flowmap.targets.PwlData(np.concatenate([[0.0], inner, [1.0]]),
                                   np.exp(rng.normal(0.0, 0.4, pieces)), 0.0)
    return fm.Target1D(fn=data, domain=(0.0, 1.0), name=f"random_pwl{pieces}", pwl=data)


# -- oned_uniform: approx1d + verify -----------------------------------------


def oned_setup(seed):
    rng = np.random.default_rng(seed)
    return {"target": fm.builtin_target_1d("smooth1"),
            "well": fm.relu_well_1d(-1.0, 0.0),
            "uniform": rng.uniform(0.0, 1.0, ONED_UNIFORM_POINTS)}


def oned_run(inp, phases, full):
    target = inp["target"]
    with phases("build"):
        res = fm.approx_increasing(target, ONED_EPS, inp["well"])
    nodes = res.nodes
    # Nodes, node midpoints and seeded points: a grid that sees the error
    # between nodes, not only the node-matching error.
    batch = np.concatenate([nodes, 0.5 * (nodes[1:] + nodes[:-1]), inp["uniform"]])
    with phases("eval"):
        out = fm.flow_eval(res.schedule, batch[:, None])[:, 0]
    with phases("io"):
        text, reloaded = _roundtrip_schedule(res.schedule)
    err = float(np.max(np.abs(out - np.asarray(target.fn(batch)))))
    checks = {"sup_error<=eps": err <= ONED_EPS}
    if full:
        checks["reload_bit_exact"] = same(fm.flow_eval(reloaded, batch[:, None])[:, 0], out)
    return Outcome({"flow": out, "schedule_json": text}, checks,
                   len(res.schedule), res.schedule.total_time)


# -- nd_lp: approxnd + verify -------------------------------------------------


def nd_setup(seed):
    rng = np.random.default_rng(seed)
    cases = []
    for name, n, N, p in ND_CASES:
        cases.append({"key": f"{name}_n{n}_p{p:g}", "F": fm.builtin_target_nd(name, n),
                      "well": fm.relu_well_nd(n), "N": N, "p": p,
                      "probe": rng.uniform(0.0, 1.0, (ND_PROBE_POINTS, n))})
    return {"seed": seed, "cases": cases}


def nd_run(inp, phases, full):
    seed = inp["seed"]
    outputs, checks = {}, {}
    steps, total_T = 0, 0.0
    for c in inp["cases"]:
        F, p, key = c["F"], c["p"], c["key"]
        with phases("build"):
            sched, rep = fm.approximate_lp(F, eps=ND_EPS, p=p, well=c["well"], grid_N=c["N"],
                                           seed=seed, mc_samples=ND_MC_SAMPLES)
        with phases("eval"):
            mc = fm.mc_lp_error(lambda x, s=sched: fm.flow_eval(s, x), F.fn, F.domain, p,
                                ND_MC_SAMPLES, seed + 1)
        with phases("io"):
            text, reloaded = _roundtrip_schedule(sched)
        checks[f"{key}.report_lp<=eps"] = rep.measured_lp_error <= ND_EPS
        checks[f"{key}.verify_lp<=eps"] = mc.value <= ND_EPS
        if full:
            checks[f"{key}.reload_bit_exact"] = same(fm.flow_eval(reloaded, c["probe"]),
                                                     fm.flow_eval(sched, c["probe"]))
        outputs.update({f"{key}.report_lp": rep.measured_lp_error,
                        f"{key}.verify_lp": mc.value, f"{key}.schedule_json": text})
        steps += len(sched)
        total_T += sched.total_time
    return Outcome(outputs, checks, steps, total_T)


# -- rate_sweep: rate, plus export and verify of the exact schedule -----------


def rate_setup(seed):
    rng = np.random.default_rng(seed)
    targets = [random_pwl_target(rng, P) for P in RATE_PIECES]
    return {"targets": targets,
            "points": [rng.uniform(0.0, 1.0, RATE_EVAL_POINTS) for _ in targets]}


def rate_run(inp, phases, full):
    outputs, checks = {}, {}
    steps, total_T = 0, 0.0
    for target, pts in zip(inp["targets"], inp["points"]):
        key = target.name
        with phases("build"):
            profile = fm.tv_log_derivative(target)
            rows = fm.rate_sweep(target, [f * profile.tv for f in RATE_BUDGET_FRACTIONS])
            exact = fm.budgeted_schedule(target, profile.tv).schedule
        with phases("io"):
            text, reloaded = _roundtrip_schedule(exact)
        with phases("eval"):
            out = fm.flow_eval(reloaded, pts[:, None])[:, 0]
        err = float(np.max(np.abs(out - np.asarray(target.fn(pts)))))
        checks[f"{key}.rows_within_bound"] = all(
            r["measured"] <= r["bound"] * 1.001 + 1e-12 for r in rows)
        checks[f"{key}.exact_at_tv"] = rows[-1]["measured"] <= RATE_EXACT_TOL
        checks[f"{key}.export_exact"] = err <= RATE_EXACT_TOL
        if full:
            checks[f"{key}.reload_bit_exact"] = same(
                fm.flow_eval(exact, pts[:, None])[:, 0], out)
        outputs.update({f"{key}.rows": json.dumps(rows, sort_keys=True),
                        f"{key}.flow": out, f"{key}.schedule_json": text})
        steps += len(exact)
        total_T += exact.total_time
    return Outcome(outputs, checks, steps, total_T)


# -- euler_bridge: discretize, export, reload, forward ------------------------


def euler_setup(seed):
    rng = np.random.default_rng(seed)
    target = random_pwl_target(rng, EULER_SOURCE_PIECES)
    rate_sched = fm.compile_heaviside_flow(fm.tv_log_derivative(target), anchor=0.0)
    nd_sched, _ = fm.approximate_lp(fm.builtin_target_nd("flip", 2), eps=ND_EPS, p=1.0,
                                    well=fm.relu_well_nd(2), grid_N=4, seed=seed,
                                    mc_samples=EULER_ND_MC_SAMPLES)
    return {"sources": [
        ("rate_1d", rate_sched, np.linspace(0.0, 1.0, EULER_GRID_1D)[:, None]),
        ("flip_2d", nd_sched, rng.uniform(0.0, 1.0, (EULER_POINTS_2D, 2))),
    ]}


def euler_run(inp, phases, full):
    outputs, checks = {}, {}
    steps, total_T = 0, 0.0
    for key, sched, pts in inp["sources"]:
        with phases("build"):
            net = fm.euler_discretize(sched, EULER_LAYERS)
        with phases("io"):
            text = json.dumps(fm.export_to_json(net), **JSON_KW)
            reloaded = fm.export_from_json(json.loads(text))
        with phases("eval"):
            y = fm.resnet_forward(reloaded, pts)
        checks[f"{key}.finite"] = bool(np.all(np.isfinite(y)))
        if full:
            checks[f"{key}.reload_bit_exact"] = same(fm.resnet_forward(net, pts), y)
        outputs.update({f"{key}.forward": y, f"{key}.export_json": text})
        steps += len(sched)
        total_T += sched.total_time
    return Outcome(outputs, checks, steps, total_T)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # seed -> inputs
    run: Callable  # (inputs, phases, full) -> Outcome


PARTS = {p.name: p for p in (
    Workload("oned_uniform", oned_setup, oned_run),
    Workload("nd_lp", nd_setup, nd_run),
    Workload("rate_sweep", rate_setup, rate_run),
    Workload("euler_bridge", euler_setup, euler_run),
)}


def combined(name, *part_names) -> Workload:
    """A workload that runs the named parts in turn; outputs and checks are
    keyed by part."""
    parts = [PARTS[n] for n in part_names]

    def setup(seed):
        return [part.setup(seed) for part in parts]

    def run(inputs, phases, full):
        outcomes = [part.run(inp, phases, full) for part, inp in zip(parts, inputs)]
        return Outcome(
            {f"{part.name}.{k}": v for part, o in zip(parts, outcomes) for k, v in o.outputs.items()},
            {f"{part.name}.{k}": v for part, o in zip(parts, outcomes) for k, v in o.checks.items()},
            sum(o.steps for o in outcomes), sum(o.flow_time_T for o in outcomes))

    return Workload(name, setup, run)


WORKLOADS = {w.name: w for w in (
    combined("fields", "oned_uniform", "euler_bridge"),
    combined("kernels", "nd_lp", "rate_sweep"),
)}

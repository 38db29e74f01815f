"""Acceptance suite: one callable per criterion, reusable by pytest and the CLI.

Each criterion function returns a record dict with a boolean "passed" and the
measured numbers.  All randomness is seeded; reports carry no wall-clock
fields so that identical configurations produce byte-identical output.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from . import families as fam
from .core import IntegratorConfig, Schedule, flow_eval
from .discretize import euler_discretize, resnet_forward, truncation_slope
from .highd import approximate_lp, build_grid_target, separate_points, transport_points
from .oned import PointMatchProblem, approx_increasing, match_points_result
from .rates import budgeted_schedule, compile_heaviside_flow, rate_sweep, tv_log_derivative
from .splitting import average_flow_schedule
from .targets import PwlData, Target1D, builtin_target_1d, builtin_target_nd
from .tensor import shear_parts, tensor_transport
from .util import collision_counts, mc_lp_error, sup_probe_points

__all__ = ["CRITERIA", "run_criterion", "run_selftest"]

RK12 = IntegratorConfig(method="rk45_adaptive", tol=1e-12)


def criterion_1_exact_relu_flow(seed: int = 0) -> dict:
    """Flow of -relu(z - x0) lands on x1 over T = ln((x2-x0)/(x1-x0))."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        x0 = rng.uniform(-3.0, 3.0)
        x1 = x0 + rng.uniform(0.05, 2.0)
        x2 = x1 + rng.uniform(0.05, 3.0)
        T = math.log((x2 - x0) / (x1 - x0))
        fld = fam.field_from_terms_1d([(-1.0, 1.0, -x0)])
        endpoint = flow_eval(Schedule(((fld, T),), 1), np.array([x2]))[0]
        worst = max(worst, abs(endpoint - x1))
    return {"max_error": worst, "tolerance": 1e-8, "passed": bool(worst <= 1e-8)}


def criterion_2_sigmoid_bound(seed: int = 0) -> dict:
    """|s - s_{M,N}| < 1/N + 1/(1 + exp(M/N)) strictly on a 10^4 grid."""
    zs = np.linspace(-5.0, 5.0, 10_000)
    s = fam.sigmoid_soft_threshold(zs)
    rows = []
    ok = True
    for M, N in ((25, 5), (100, 10), (400, 20)):
        gap = float(np.max(np.abs(s - fam.sigmoid_smn(M, N, zs))))
        bound = 1.0 / N + 1.0 / (1.0 + math.exp(M / N))
        rows.append({"M": M, "N": N, "max_gap": gap, "bound": bound})
        ok = ok and gap < bound
    return {"cases": rows, "passed": bool(ok)}


def criterion_3_splitting_rate(seed: int = 0) -> dict:
    """Endpoint error of the alternating schedule decays ~1/N."""
    f = fam.field_from_terms_1d([(1.0, 1.0, 0.0), (-1.0, -1.0, 0.0)], label="z")
    g = fam.field_from_terms_1d([(1.0, 0.0, 1.0)], label="1")
    avg = fam.field_from_terms_1d([(0.5, 1.0, 0.0), (-0.5, -1.0, 0.0), (0.5, 0.0, 1.0)])
    x0 = np.array([1.0])
    ref = flow_eval(Schedule(((avg, 1.0),), 1), x0, RK12)[0]
    Ns = [4, 8, 16, 32, 64]
    errs = []
    for N in Ns:
        sched = average_flow_schedule(f, g, 1.0, N)
        errs.append(abs(flow_eval(sched, x0)[0] - ref))
    slope = float(np.polyfit(np.log(Ns), np.log(errs), 1)[0])
    return {"N": Ns, "errors": errs, "slope": slope, "passed": bool(slope <= -0.8)}


def criterion_4_point_matching(seed: int = 0) -> dict:
    """20 random problems, m <= 6: matched within 1e-6 and monotone on a grid."""
    rng = np.random.default_rng(seed)
    well = fam.relu_well_1d(-1.0, 0.0)
    worst = 0.0
    monotone_ok = True
    for _ in range(20):
        m = int(rng.integers(1, 7))
        xs = np.sort(rng.uniform(-2.0, 4.0, size=m))
        ys = np.sort(rng.uniform(-2.0, 4.0, size=m))
        while np.any(np.diff(xs) < 1e-3) or np.any(np.diff(ys) < 1e-3):
            xs = np.sort(rng.uniform(-2.0, 4.0, size=m))
            ys = np.sort(rng.uniform(-2.0, 4.0, size=m))
        res = match_points_result(PointMatchProblem(xs, ys, well, 1e-6))
        worst = max(worst, float(np.max(np.abs(res.achieved - ys))))
        grid = np.linspace(-3.0, 5.0, 512)[:, None]
        out = flow_eval(res.schedule, grid)[:, 0]
        monotone_ok = monotone_ok and bool(np.all(np.diff(out) > 0))
    return {"max_error": worst, "monotone": monotone_ok,
            "passed": bool(worst <= 1e-6 and monotone_ok)}


def criterion_5_increasing_approx(seed: int = 0) -> dict:
    """Builtin increasing targets reach sup error <= eps for both budgets,
    probed between the partition nodes too (see sup_probe_points)."""
    rows = []
    ok = True
    for name in ("smooth1", "quad"):
        target = builtin_target_1d(name)
        for eps in (1e-1, 1e-2):
            res = approx_increasing(target, eps)
            probe = sup_probe_points(res.nodes, seed)
            out = flow_eval(res.schedule, probe[:, None])[:, 0]
            err = float(np.max(np.abs(out - np.asarray(target.fn(probe)))))
            budget = res.error_budget
            rows.append({"target": name, "eps": eps, "measured": err,
                         "error_budget": budget, "steps": len(res.schedule)})
            ok = ok and err <= eps and err <= budget
    return {"cases": rows, "passed": bool(ok)}


def _random_pwl(rng, pieces: int) -> Target1D:
    cuts = np.sort(rng.uniform(0.15, 0.85, size=pieces - 1))
    bp = np.concatenate([[0.0], cuts, [1.0]])
    slopes = rng.uniform(0.4, 2.5, size=pieces)
    data = PwlData(bp, slopes, 0.0)
    return Target1D(fn=data, domain=(0.0, 1.0), name=f"pwl{pieces}", pwl=data)


def criterion_6_rate_exactness(seed: int = 0) -> dict:
    """Compile at T = tv reproduces breakpoints to 1e-6; time equals tv to 1e-12."""
    rng = np.random.default_rng(seed)
    rows = []
    ok = True
    for pieces in (2, 3, 5):
        target = _random_pwl(rng, pieces)
        profile = tv_log_derivative(target)
        sched = compile_heaviside_flow(profile, anchor=0.0)
        bp = target.pwl.breakpoints
        out = flow_eval(sched, bp[:, None])[:, 0]
        bp_err = float(np.max(np.abs(out - target.pwl.values())))
        t_err = abs(sched.total_time - profile.tv)
        rows.append({"pieces": pieces, "tv": profile.tv,
                     "breakpoint_error": bp_err, "time_gap": t_err})
        ok = ok and bp_err <= 1e-6 and t_err <= 1e-12
    return {"cases": rows, "passed": bool(ok)}


def criterion_7_budgeted_error(seed: int = 0) -> dict:
    """Monotone-u target with tv = 1: sweep T, measured <= bound; zero at T = 1,
    for the compiled map and for the flow of the exported schedule, probed
    between the target's breakpoints too (see sup_probe_points)."""
    target = builtin_target_1d("mono_tv1")
    profile = tv_log_derivative(target)
    rows = rate_sweep(target, [0.25, 0.5, 0.75, 1.0])
    ok = abs(profile.tv - 1.0) < 1e-12
    for row in rows:
        gamma_expect = max(0.0, (1.0 - row["T"]) / 2.0)
        ok = ok and abs(row["gamma"] - gamma_expect) < 1e-12
        ok = ok and row["measured"] <= row["bound"] * 1.001 + 1e-12
    ok = ok and rows[-1]["measured"] <= 1e-9
    probe = sup_probe_points(target.pwl.breakpoints, seed)
    out = flow_eval(budgeted_schedule(target, profile.tv).schedule, probe[:, None])[:, 0]
    flow_err = float(np.max(np.abs(out - np.asarray(target.fn(probe)))))
    ok = ok and flow_err <= 1e-9
    return {"tv": profile.tv, "rows": rows, "flow_sup_error_at_tv": flow_err,
            "passed": bool(ok)}


def criterion_8_nd_pipeline(seed: int = 0, mc_samples: int = 100_000) -> dict:
    """n = 2 pipeline at eps = 0.5, grid N = 4, for p in {1, 2}."""
    well = fam.relu_well_nd(2)
    rows = []
    ok = True
    for name in ("identity", "flip", "const"):
        for p in (1, 2):
            F = builtin_target_nd(name, 2)
            _, rep = approximate_lp(F, eps=0.5, p=p, well=well, grid_N=4,
                                    seed=seed, mc_samples=mc_samples)
            rows.append({"target": name, "p": p,
                         "measured": rep.measured_lp_error,
                         "stderr": rep.mc_stderr, "alpha": rep.alpha,
                         "eps2": rep.eps2, "total_time": rep.total_time_T})
            ok = ok and rep.measured_lp_error <= 0.5
    return {"cases": rows, "passed": bool(ok)}


def criterion_9_separation_transport(seed: int = 0, instances: int = 200) -> dict:
    """Collision counts strictly decrease; non-driven coordinates stay fixed."""
    rng = np.random.default_rng(seed)
    ok_sep = True
    ok_fix = True
    worst_fix = 0.0
    half = instances // 2
    for it in range(half):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 7))
        well = fam.relu_well_nd(n)
        # Values from a small lattice force coordinate collisions while the
        # points themselves stay distinct.
        for _ in range(100):
            pts = rng.integers(0, 3, size=(m, n)) * 0.3
            if len(np.unique(pts, axis=0)) == m:
                break
        sched, trace = separate_points(pts, well, eps=0.2, return_trace=True)
        for rec in trace:
            ok_sep = ok_sep and rec["collisions_after"] < rec["collisions_before"]
        out = flow_eval(sched, pts) if len(sched) else pts
        ok_sep = ok_sep and all(c == 0 for c in collision_counts(out))
    for it in range(instances - half):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 7))
        well = fam.relu_well_nd(n)
        xs = np.stack([rng.permutation(m) * 0.13 + rng.uniform(0, 0.05, m)
                       for _ in range(n)], axis=1)
        ys = rng.uniform(-0.5, 1.5, size=(m, n))
        sched = transport_points(xs, ys, well, eps=1e-4)
        pts = xs.copy()
        for fld, tau in sched.steps:
            nxt = fld.exact_flow(pts, tau)
            driven = int(np.flatnonzero(np.any(np.asarray(fld.params["V"]) != 0.0, axis=1))[0])
            others = [c for c in range(n) if c != driven]
            drift = float(np.max(np.abs(nxt[:, others] - pts[:, others]))) if others else 0.0
            worst_fix = max(worst_fix, drift)
            pts = nxt
        ok_fix = ok_fix and worst_fix <= 1e-12
        ok_fix = ok_fix and float(np.max(np.abs(pts - ys))) <= 1e-4
    return {"separation_ok": ok_sep, "fixed_coordinate_drift": worst_fix,
            "passed": bool(ok_sep and ok_fix)}


def criterion_10_euler_bridge(seed: int = 0) -> dict:
    """Truncation slopes in [-1.25, -0.75]; exported network within 2x tolerance."""
    lin = fam.field_from_terms_1d([(1.0, 1.0, 0.0), (-1.0, -1.0, 0.0)], label="z")
    rot = fam.generic_field(lambda z: np.stack([-z[..., 1], z[..., 0]], axis=-1), 2, 1.0, "rot")
    affine = fam.field_from_terms_1d([(-0.5, 1.0, 0.0), (0.5, -1.0, 0.0), (1.0, 0.0, 1.0)])
    schedules = [
        ("linear", Schedule(((lin, 1.0),), 1), np.linspace(0, 1, 9)[:, None]),
        ("rotation", Schedule(((rot, np.pi / 3),), 2), None),
        ("affine", Schedule(((affine, 0.8), (lin, 0.4)), 1), np.linspace(0, 1, 9)[:, None]),
    ]
    slopes = {}
    ok = True
    for name, sched, probes in schedules:
        slope, _ = truncation_slope(sched, [64, 128, 256, 512], probe_points=probes)
        slopes[name] = slope
        ok = ok and slope is not None and -1.25 <= slope <= -0.75
    # Exported network reproduces a matched-flow schedule at S = 1024.
    eps_cont = 0.02
    well = fam.relu_well_1d(-0.5, 0.0)
    xs = np.array([0.2, 0.5, 0.8])
    ys = np.array([0.3, 0.55, 0.9])
    ms = match_points_result(PointMatchProblem(xs, ys, well, eps_cont)).schedule
    net = euler_discretize(ms, 1024)
    net_out = resnet_forward(net, xs[:, None])[:, 0]
    net_err = float(np.max(np.abs(net_out - ys)))
    ok = ok and net_err <= 2.0 * eps_cont
    return {"slopes": slopes, "network_error": net_err,
            "network_tolerance": 2.0 * eps_cont, "passed": bool(ok)}


def criterion_11_tensor_shear(seed: int = 0) -> dict:
    """Co-move stages conserve x_i - x_j to 1e-9; tensor transport within 1e-3
    of three points and of the 16 n=2, N=4 grid corners, which need separating."""
    from .rates import translation_gadget

    gsched = translation_gadget(0.7, 0.01)
    parts = shear_parts(gsched, 0, 1, 2)
    drift = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(20):
        z = rng.uniform(-1.0, 2.0, size=2)
        for f, tau in parts.comove.steps:
            z2 = f.exact_flow(z, tau)
            drift = max(drift, abs((z2[0] - z2[1]) - (z[0] - z[1])))
            z = z2
    xs = np.array([[0.1, 0.2], [0.4, 0.5], [0.8, 0.9]])
    ys = np.array([[0.3, 0.7], [0.2, 0.1], [0.9, 0.4]])
    sched = tensor_transport(xs, ys, eps=1e-3)
    err = float(np.max(np.abs(flow_eval(sched, xs) - ys)))
    grid = build_grid_target(builtin_target_nd("identity", 2), 4, p=1)
    sched, trace = tensor_transport(grid.corners, grid.values, eps=1e-3, return_trace=True)
    grid_err = float(np.max(np.linalg.norm(flow_eval(sched, grid.corners) - grid.values, axis=1)))
    seps = sum(rec["kind"] == "separate" for rec in trace)
    return {"conserved_drift": drift, "transport_error": err, "grid_transport_error": grid_err,
            "grid_separations": seps,
            "passed": bool(drift <= 1e-9 and err <= 1e-3 and grid_err <= 1e-3 and seps > 0)}


def criterion_12_determinism(seed: int = 0) -> dict:
    """Identical seeds give byte-identical reports for the MC-bearing paths."""
    def payload():
        F = builtin_target_nd("flip", 2)
        _, rep = approximate_lp(F, eps=0.5, p=1, well=fam.relu_well_nd(2),
                                grid_N=4, seed=seed, mc_samples=10_000)
        mc = mc_lp_error(lambda x: x, lambda x: x + 0.1, np.tile([[0.0, 1.0]], (2, 1)),
                         2.0, 5_000, seed)
        return json.dumps({"pipeline": rep.to_dict(),
                           "mc": [mc.value, mc.stderr]}, sort_keys=True)

    a, b = payload(), payload()
    return {"byte_identical": a == b, "passed": bool(a == b)}


CRITERIA = [
    ("1_exact_relu_flow", criterion_1_exact_relu_flow),
    ("2_sigmoid_bound", criterion_2_sigmoid_bound),
    ("3_splitting_rate", criterion_3_splitting_rate),
    ("4_point_matching", criterion_4_point_matching),
    ("5_increasing_approx", criterion_5_increasing_approx),
    ("6_rate_exactness", criterion_6_rate_exactness),
    ("7_budgeted_error", criterion_7_budgeted_error),
    ("8_nd_pipeline", criterion_8_nd_pipeline),
    ("9_separation_transport", criterion_9_separation_transport),
    ("10_euler_bridge", criterion_10_euler_bridge),
    ("11_tensor_shear", criterion_11_tensor_shear),
    ("12_determinism", criterion_12_determinism),
]


def run_criterion(name: str, seed: int = 0) -> dict:
    for key, fn in CRITERIA:
        if key == name:
            return fn(seed=seed)
    raise KeyError(name)


def run_selftest(seed: int = 0, verbose: bool = True):
    """Run every acceptance criterion; returns (report, timings)."""
    report = {"seed": seed, "criteria": {}}
    timings = {}
    all_pass = True
    for name, fn in CRITERIA:
        t0 = time.perf_counter()
        rec = fn(seed=seed)
        timings[name] = time.perf_counter() - t0
        report["criteria"][name] = rec
        all_pass = all_pass and rec["passed"]
        if verbose:
            status = "PASS" if rec["passed"] else "FAIL"
            print(f"[{status}] criterion {name} ({timings[name]:.2f}s)")
    report["all_passed"] = all_pass
    return report, timings

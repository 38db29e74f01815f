"""Command-line entry points: build, sweep, discretize, verify, selftest.

Every run writes to a directory: config echo, JSON reports with stable key
order, RFC-4180 CSV tables, and a timing sidecar.  Wall-clock numbers live
only in timing.json so that reports are byte-identical across identical runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import families as fam
from .core import flow_eval, jacobian_sign_check, schedule_from_json, schedule_to_json
from .discretize import euler_discretize, export_to_json, truncation_slope
from .highd import approximate_lp
from .oned import approx_increasing
from .rates import rate_sweep, tv_log_derivative
from .selftest import run_selftest
from .targets import parse_target
from .terminal import TerminalMap
from .util import mc_lp_error, sup_probe_points

JSON_KW = {"sort_keys": True, "indent": 2}


def _require(args, *names) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise ValueError(f"missing required option(s): "
                         + ", ".join("--" + n.replace("_", "-") for n in missing))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, **JSON_KW) + "\n", encoding="utf-8")


def _write_csv(path: Path, rows, fieldnames) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _outdir(args, command: str) -> Path:
    out = Path(args.out) if args.out else Path("runs") / command
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(out: Path, args) -> None:
    cfg = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    _write_json(out / "config.json", cfg)


def cmd_approx1d(args) -> int:
    _require(args, "target", "eps")
    out = _outdir(args, "approx1d")
    _echo_config(out, args)
    t0 = time.perf_counter()
    target = parse_target(args.target, kind="1d")
    res = approx_increasing(target, args.eps)
    pts = sup_probe_points(res.nodes, args.seed)
    got = flow_eval(res.schedule, pts[:, None])[:, 0]
    err = float(np.max(np.abs(got - np.asarray(target.fn(pts)))))
    _write_json(out / "schedule.json", schedule_to_json(res.schedule))
    _write_json(out / "report.json", {
        "target": args.target, "eps": args.eps,
        "measured_sup_error": err, "error_budget": res.error_budget,
        "cells_certified": res.cells_certified, "cells_sampled": res.cells_sampled,
        "nodes": len(res.nodes), "steps": len(res.schedule),
        "total_time_T": res.schedule.total_time,
        "passed": bool(err <= args.eps),
    })
    _write_json(out / "timing.json", {"wall_time": time.perf_counter() - t0})
    print(f"approx1d: sup error {err:.3g} (eps {args.eps}) -> {out}")
    return 0 if err <= args.eps else 1


def cmd_rate(args) -> int:
    _require(args, "target", "budgets")
    out = _outdir(args, "rate")
    _echo_config(out, args)
    t0 = time.perf_counter()
    target = parse_target(args.target, kind="1d")
    budgets = [float(x) for x in args.budgets.split(",")]
    profile = tv_log_derivative(target)
    rows = rate_sweep(target, budgets)
    passed = all(r["measured"] <= r["bound"] * 1.001 + 1e-12 for r in rows)
    _write_csv(out / "sweep.csv", rows, ["T", "gamma", "bound", "measured"])
    _write_json(out / "report.json", {
        "target": args.target, "tv": profile.tv, "tv_interior": profile.tv_interior,
        "rows": rows, "passed": passed,
    })
    _write_json(out / "timing.json", {"wall_time": time.perf_counter() - t0})
    print(f"rate: {len(rows)} budget rows -> {out}")
    return 0 if passed else 1


def cmd_approxnd(args, backend: str = "frozen") -> int:
    _require(args, "target", "eps")
    out = _outdir(args, "approxnd" if backend == "frozen" else "tensor")
    _echo_config(out, args)
    t0 = time.perf_counter()
    F = parse_target(args.target, n=args.n, kind="nd")
    well = fam.relu_well_nd(args.n)
    g = None
    if args.terminal:
        g = TerminalMap.from_json(json.loads(Path(args.terminal).read_text()))
    sched, rep = approximate_lp(F, eps=args.eps, p=args.p, well=well, g=g,
                                grid_N=args.grid_N, alpha=args.alpha,
                                seed=args.seed, mc_samples=args.mc_samples,
                                transport_backend=backend)
    _write_json(out / "schedule.json", schedule_to_json(sched))
    _write_json(out / "report.json", dict(rep.to_dict(),
                                          passed=bool(rep.measured_lp_error <= args.eps)))
    _write_json(out / "timing.json", {"wall_time": time.perf_counter() - t0})
    print(f"{'approxnd' if backend == 'frozen' else 'tensor'}: measured "
          f"L^{args.p} error {rep.measured_lp_error:.4f} (eps {args.eps}) -> {out}")
    return 0 if rep.measured_lp_error <= args.eps else 1


def cmd_discretize(args) -> int:
    _require(args, "schedule", "layers")
    out = _outdir(args, "discretize")
    _echo_config(out, args)
    t0 = time.perf_counter()
    sched = schedule_from_json(json.loads(Path(args.schedule).read_text()))
    net = euler_discretize(sched, args.layers)
    _write_json(out / "resnet.json", export_to_json(net))
    floor = len([1 for _, t in sched.steps if t > 0.0])
    S_list = sorted({s for s in (args.layers // 8, args.layers // 4,
                                 args.layers // 2, args.layers) if s >= floor})
    if len(S_list) >= 3:
        slope, errors = truncation_slope(sched, S_list)
    else:
        slope, errors = None, []  # layer budget too close to the step count
    decreasing = bool(all(b < a for a, b in zip(errors, errors[1:]))) if errors else None
    _write_json(out / "report.json", {
        "layers": args.layers, "source_T": net.source_T, "S_list": S_list,
        "slope": slope, "errors": errors,
        # The first-order rate shows only once S is well past T per step.
        "errors_decreasing": decreasing,
    })
    _write_json(out / "timing.json", {"wall_time": time.perf_counter() - t0})
    print(f"discretize: S={args.layers}, slope={slope} -> {out}")
    return 0


def cmd_verify(args) -> int:
    _require(args, "schedule", "target")
    out = _outdir(args, "verify")
    _echo_config(out, args)
    t0 = time.perf_counter()
    sched = schedule_from_json(json.loads(Path(args.schedule).read_text()))
    report = {"dim": sched.dim, "steps": len(sched), "total_time_T": sched.total_time}
    if sched.dim == 1:
        target = parse_target(args.target, kind="1d")
        pts = sup_probe_points(np.linspace(*target.domain, 4097), args.seed)
        got = flow_eval(sched, pts[:, None])[:, 0]
        report["measured_sup_error"] = float(np.max(np.abs(got - np.asarray(target.fn(pts)))))
        report["monotone"] = bool(np.all(np.diff(got) > 0))
        probe = np.linspace(target.domain[0], target.domain[1], 9)[:, None]
    else:
        target = parse_target(args.target, n=sched.dim, kind="nd")
        mc = mc_lp_error(lambda x: flow_eval(sched, x), target.fn, target.domain,
                         args.p, args.mc_samples, args.seed)
        report["measured_lp_error"] = mc.value
        report["mc_stderr"] = mc.stderr
        axes = [np.linspace(0.1, 0.9, 3)] * sched.dim
        probe = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    jac = jacobian_sign_check(sched, probe)
    report["jacobian_signs"] = [{"det": r.det, "positive": r.positive} for r in jac]
    _write_json(out / "report.json", report)
    _write_json(out / "timing.json", {"wall_time": time.perf_counter() - t0})
    print(f"verify -> {out}")
    return 0


def cmd_selftest(args) -> int:
    out = _outdir(args, "selftest")
    _echo_config(out, args)
    t0 = time.perf_counter()
    report, timings = run_selftest(seed=args.seed, verbose=True)
    _write_json(out / "report.json", report)
    _write_json(out / "timing.json", {"wall_time": time.perf_counter() - t0,
                                      "criteria": timings})
    print(f"selftest: {'ALL PASS' if report['all_passed'] else 'FAILURES'} -> {out}")
    return 0 if report["all_passed"] else 1


def build_parser():
    p = argparse.ArgumentParser(prog="flowmap",
                                description="Flow-map approximation toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="output directory (default runs/<command>)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--config", help="JSON config file; explicit flags win")

    sp = sub.add_parser("approx1d", help="approximate an increasing 1D target")
    sp.add_argument("--target", help="builtin:NAME or csv:PATH")
    sp.add_argument("--eps", type=float)
    common(sp)
    sp.set_defaults(func=cmd_approx1d)

    sp = sub.add_parser("rate", help="time-budget sweep for a 1D target")
    sp.add_argument("--target")
    sp.add_argument("--budgets", "--budget", help="comma-separated T values")
    common(sp)
    sp.set_defaults(func=cmd_rate)

    for name, backend in (("approxnd", "frozen"), ("tensor", "tensor")):
        sp = sub.add_parser(name, help=f"L^p pipeline ({backend} transport backend)")
        sp.add_argument("--target")
        sp.add_argument("--n", type=int, default=2)
        sp.add_argument("--p", type=float, default=2.0)
        sp.add_argument("--eps", type=float)
        sp.add_argument("--grid-N", type=int, default=None, dest="grid_N")
        sp.add_argument("--alpha", type=float, default=None)
        sp.add_argument("--mc-samples", type=int, default=100_000, dest="mc_samples")
        sp.add_argument("--terminal", help="JSON file with an affine terminal map")
        common(sp)
        sp.set_defaults(func=lambda a, b=backend: cmd_approxnd(a, backend=b))

    sp = sub.add_parser("discretize", help="Euler-discretize a schedule file")
    sp.add_argument("--schedule")
    sp.add_argument("--layers", type=int)
    common(sp)
    sp.set_defaults(func=cmd_discretize)

    sp = sub.add_parser("verify", help="error/monotonicity/Jacobian reports")
    sp.add_argument("--schedule")
    sp.add_argument("--target")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--mc-samples", type=int, default=100_000, dest="mc_samples")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("selftest", help="run the acceptance suite")
    common(sp)
    sp.set_defaults(func=cmd_selftest)
    return p, sub


def main(argv=None) -> int:
    parser, sub = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        # Config file supplies defaults for its subcommand; explicit flags win
        # because the command line is re-parsed on top of those defaults.
        cfg = json.loads(Path(args.config).read_text())
        sub.choices[args.command].set_defaults(**cfg)
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        err = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

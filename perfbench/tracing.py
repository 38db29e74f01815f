"""Timing wrappers installed around flowmap's public functions for one run.

The tracer rebinds each wrapped module function in every ``flowmap`` module
that holds the same function object, and patches four methods on their
classes.  ``remove`` puts every original object back.  Spans are kept in
memory as (id, name, start, end, parent id) and written out by the caller
when the run ends; a span's self time is its duration minus the time its
child spans cover.  The three kernel methods of ``PwlField`` are called
hundreds of thousands of times per run, so they are aggregated (calls, time,
point-steps) and charged to their parent's child time without keeping a span
each.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import numpy as np

import flowmap.families
import flowmap.pwl


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _flow_eval_point_steps(args, kwargs, result):
    sched, x = args[0], _arg(args, kwargs, 1, "x")
    batch = np.size(x) // sched.dim
    return {"point_steps": batch * sum(1 for _, t in sched.steps if t > 0.0)}


def _pwl_flow_point_steps(args, kwargs, result):
    x, tau = _arg(args, kwargs, 1, "x"), _arg(args, kwargs, 2, "tau")
    return {"point_steps": np.size(x) if tau > 0 else 0}


def _resnet_point_layers(args, kwargs, result):
    net = args[0]
    return {"point_layers": (np.size(_arg(args, kwargs, 1, "x")) // net.dim) * net.S}


# name -> (owner, attribute, counter of (args, kwargs, result), descendant
# call counts to record, keep a span per call).  Owners given as a string are
# module names; the function is rebound wherever flowmap holds it.
SPECS = {
    "pwl.flow_scalar": (flowmap.pwl.PwlField, "flow_scalar", None, (), False),
    "pwl.flow": (flowmap.pwl.PwlField, "flow", _pwl_flow_point_steps, (), False),
    "pwl.tables": (flowmap.pwl.PwlField, "__post_init__", None, (), False),
    "families.relu_field": ("flowmap.families", "relu_field", None, (), True),
    "families.apply_restriction": ("flowmap.families", "apply_restriction", None, (), True),
    "families.negated_field": ("flowmap.families", "negated_field", None, (), True),
    "families.translated": (flowmap.families.WellFunction, "translated", None, (), True),
    "core.flow_eval": ("flowmap.core", "flow_eval", _flow_eval_point_steps, (), True),
    "core.schedule_to_json": ("flowmap.core", "schedule_to_json",
                              lambda a, k, r: {"steps": len(a[0])}, (), True),
    "core.schedule_from_json": ("flowmap.core", "schedule_from_json",
                                lambda a, k, r: {"steps": len(r)}, (), True),
    "oned.approx_increasing": ("flowmap.oned", "approx_increasing", None, (), True),
    "oned.match_points_result": ("flowmap.oned", "match_points_result",
                                 lambda a, k, r: {"stages": r.stage_count},
                                 ("pwl.flow_scalar", "families.relu_field"), True),
    "oned.transport_time": ("flowmap.oned", "transport_time", None, (), True),
    "highd.build_grid_target": ("flowmap.highd", "build_grid_target", None, (), True),
    "highd.separate_points": ("flowmap.highd", "separate_points", None, (), True),
    "highd.transport_points": ("flowmap.highd", "transport_points", None, (), True),
    "highd.build_contraction": ("flowmap.highd", "build_contraction",
                                lambda a, k, r: {"steps": len(r)}, (), True),
    "highd.approximate_lp": ("flowmap.highd", "approximate_lp", None,
                             ("core.flow_eval",), True),
    "util.mc_lp_error": ("flowmap.util", "mc_lp_error",
                         lambda a, k, r: {"samples": r.samples}, (), True),
    "rates.tv_log_derivative": ("flowmap.rates", "tv_log_derivative", None, (), True),
    "rates.gamma_relaxed": ("flowmap.rates", "gamma_relaxed", None, (), True),
    "rates.compile_heaviside_flow": ("flowmap.rates", "compile_heaviside_flow", None, (), True),
    "rates.budgeted_schedule": ("flowmap.rates", "budgeted_schedule", None, (), True),
    "rates.rate_sweep": ("flowmap.rates", "rate_sweep", None, (), True),
    "discretize.euler_discretize": ("flowmap.discretize", "euler_discretize", None, (), True),
    "discretize.resnet_forward": ("flowmap.discretize", "resnet_forward",
                                  _resnet_point_layers, (), True),
    "discretize.export_to_json": ("flowmap.discretize", "export_to_json",
                                  lambda a, k, r: {"layers": a[0].S}, (), True),
    "discretize.export_from_json": ("flowmap.discretize", "export_from_json",
                                    lambda a, k, r: {"layers": r.S}, (), True),
}


class Tracer:
    """Context manager: wrappers are installed on entry and removed on exit."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1)
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.counts = Counter()  # "<name>.<count>" -> summed value
        self._stack = []  # open frames: [span id, child seconds]
        self._next_id = 0
        self._patches = []  # (owner, attribute, original)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, counter, scope, keep_span):
        stack, calls = self._stack, self.calls

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            before = [calls[s] for s in scope]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[1]
                if keep_span:
                    self.spans.append((span_id, name, t0, t1, stack[-1][0] if stack else -1))
            for s, b in zip(scope, before):
                self.counts[f"{name}>{s}"] += calls[s] - b
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "flowmap" or n.startswith("flowmap.")) and m is not None]
        try:
            for name, (owner, attr, counter, scope, keep_span) in SPECS.items():
                if isinstance(owner, str):
                    original = getattr(sys.modules[owner], attr)
                    wrapper = self._wrap(name, original, counter, scope, keep_span)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapper)
                else:
                    original = owner.__dict__[attr]
                    self._patch(owner, attr,
                                self._wrap(name, original, counter, scope, keep_span))
        except BaseException:
            self.remove()
            raise

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    @property
    def patched(self):
        """(owner, attribute, original) for every attribute currently replaced."""
        return list(self._patches)

    # -- per-layer metrics ------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}; 0 where a layer is idle."""
        calls, tot, slf, cnt = self.calls, self.total_s, self.self_s, self.counts

        def per(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        stages = cnt["oned.match_points_result.stages"]
        pwl_ps = cnt["pwl.flow.point_steps"]
        fe_ps = cnt["core.flow_eval.point_steps"]
        m = {
            "pwl.flow_scalar.calls": (calls["pwl.flow_scalar"], "count"),
            "pwl.flow_scalar.ns_per_call": (
                per(tot["pwl.flow_scalar"], calls["pwl.flow_scalar"], 1e9), "ns"),
            "pwl.flow.point_steps": (pwl_ps, "count"),
            "pwl.flow.ns_per_point_step": (per(tot["pwl.flow"], pwl_ps, 1e9), "ns"),
            "pwl.tables.calls": (calls["pwl.tables"], "count"),
            "pwl.tables.us_per_call": (per(tot["pwl.tables"], calls["pwl.tables"], 1e6), "us"),
            "families.relu_field.calls": (calls["families.relu_field"], "count"),
            "families.relu_field.self_us_per_call": (
                per(slf["families.relu_field"], calls["families.relu_field"], 1e6), "us"),
            "families.apply_restriction.calls": (calls["families.apply_restriction"], "count"),
            "families.apply_restriction.self_us_per_call": (
                per(slf["families.apply_restriction"], calls["families.apply_restriction"], 1e6),
                "us"),
            "families.negated_field.calls": (calls["families.negated_field"], "count"),
            "families.translated.calls": (calls["families.translated"], "count"),
            "core.flow_eval.calls": (calls["core.flow_eval"], "count"),
            "core.flow_eval.point_steps": (fe_ps, "count"),
            "core.flow_eval.self_ns_per_point_step": (
                per(slf["core.flow_eval"], fe_ps, 1e9), "ns"),
            "core.schedule_to_json.us_per_step": (
                per(tot["core.schedule_to_json"], cnt["core.schedule_to_json.steps"], 1e6), "us"),
            "core.schedule_from_json.us_per_step": (
                per(tot["core.schedule_from_json"], cnt["core.schedule_from_json.steps"], 1e6),
                "us"),
            "oned.stages": (stages, "count"),
            "oned.transport_time.calls": (calls["oned.transport_time"], "count"),
            "oned.match_points_result.self_s": (slf["oned.match_points_result"], "s"),
            "oned.flow_scalar_per_stage": (
                per(cnt["oned.match_points_result>pwl.flow_scalar"], stages), "ratio"),
            "oned.fields_per_stage": (
                per(cnt["oned.match_points_result>families.relu_field"], stages), "ratio"),
            "highd.build_grid_target.s": (tot["highd.build_grid_target"], "s"),
            "highd.separate_points.s": (tot["highd.separate_points"], "s"),
            "highd.transport_points.s": (tot["highd.transport_points"], "s"),
            "highd.build_contraction.s": (tot["highd.build_contraction"], "s"),
            "highd.approximate_lp.self_s": (slf["highd.approximate_lp"], "s"),
            "highd.approximate_lp.flow_eval_calls": (
                cnt["highd.approximate_lp>core.flow_eval"], "count"),
            "highd.contraction_steps": (cnt["highd.build_contraction.steps"], "count"),
            "util.mc_lp_error.s": (tot["util.mc_lp_error"], "s"),
            "util.mc_lp_error.self_s": (slf["util.mc_lp_error"], "s"),
            "util.mc_lp_error.samples": (cnt["util.mc_lp_error.samples"], "count"),
            "rates.tv_log_derivative.s": (tot["rates.tv_log_derivative"], "s"),
            "rates.gamma_relaxed.s": (tot["rates.gamma_relaxed"], "s"),
            "rates.compile_heaviside_flow.s": (tot["rates.compile_heaviside_flow"], "s"),
            "rates.budgeted_schedule.calls": (calls["rates.budgeted_schedule"], "count"),
            "rates.rate_sweep.self_s": (slf["rates.rate_sweep"], "s"),
            "discretize.euler_discretize.s": (tot["discretize.euler_discretize"], "s"),
            "discretize.resnet_forward.ns_per_point_layer": (
                per(tot["discretize.resnet_forward"],
                    cnt["discretize.resnet_forward.point_layers"], 1e9), "ns"),
            "discretize.export_to_json.us_per_layer": (
                per(tot["discretize.export_to_json"], cnt["discretize.export_to_json.layers"],
                    1e6), "us"),
            "discretize.export_from_json.us_per_layer": (
                per(tot["discretize.export_from_json"],
                    cnt["discretize.export_from_json.layers"], 1e6), "us"),
        }
        return m

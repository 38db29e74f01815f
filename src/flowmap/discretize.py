"""Forward-Euler discretization of schedules into discrete residual networks.

Each layer applies z <- z + delta * f(z).  Layers are allocated to schedule
steps proportionally to their durations, with per-step delta = tau / layers
so no time is lost to rounding; the global truncation error of the resulting
network is first order in the layer count.
A network is held, and exported, as runs: each live step becomes one
(field, layers, delta) run of identical layers, and ``resnet_forward``
applies a run in one step where its composite map has a closed form.  On
the benchmark's two Euler sources at 4096 layers (seeds 1-3), the closed
forms move outputs by at most 1.6e-14 (1D) and 4.4e-11 (2D) against the
per-layer loop.  Against an extended-precision per-layer loop they are not
always as accurate as the float64 loop: on a contracting tensor run the
RMS error is 8.1e-15 against the loop's 4.6e-15.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import (Schedule, _check_state, _require_json_type, field_from_json, field_to_json,
                   flow_eval, require_duration)

__all__ = [
    "ResNetExport",
    "euler_discretize",
    "resnet_forward",
    "export_to_json",
    "export_from_json",
    "truncation_slope",
]

EXPORT_FORMAT_VERSION = 2


@dataclass(frozen=True)
class ResNetExport:
    """Discrete residual network: runs of identical layers."""

    runs: tuple  # (VectorField, layers, delta) per run
    source_T: float
    dim: int

    def __post_init__(self):
        if type(self.dim) is not int or self.dim < 1:
            raise ValueError(f"network dim must be an int >= 1, got {self.dim!r}")
        object.__setattr__(self, "source_T", require_duration(self.source_T, "source_T"))
        for r, (f, k, d) in enumerate(self.runs):
            if f.dim != self.dim:
                raise ValueError(f"run {r}: field dim {f.dim} != network dim {self.dim}")
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise ValueError(f"run {r}: layers must be an int >= 1, got {k!r}")
            require_duration(d, f"run {r}: delta")

    @property
    def S(self) -> int:
        return sum(k for _, k, _ in self.runs)


def euler_discretize(sched: Schedule, S: int) -> ResNetExport:
    """Allocate S layers across the schedule's steps, largest remainders first.

    Every step with positive duration receives at least one layer; the k
    layers assigned to a step form one run applying z <- z + (tau/k) f(z).
    """
    if not isinstance(S, numbers.Integral) or isinstance(S, bool) or S < 1:
        raise ValueError(f"S must be an int >= 1, got {S!r}")
    live = [(f, t) for f, t in sched.steps if t > 0.0]
    if S < len(live):
        raise ValueError(f"S={S} is smaller than the number of schedule steps ({len(live)})")
    T = math.fsum(t for _, t in live)
    if not live:
        return ResNetExport(runs=(), source_T=0.0, dim=sched.dim)
    raw = [S * t / T for _, t in live]
    alloc = [max(1, int(math.floor(r))) for r in raw]
    while sum(alloc) > S:
        # The max(1,...) floor overshot; trim the largest trimmable surplus.
        candidates = [i for i in range(len(live)) if alloc[i] > 1]
        if not candidates:
            raise ValueError("cannot honor one layer per step within S")
        k = max(candidates, key=lambda i: alloc[i] - raw[i])
        alloc[k] -= 1
    remainders = [(raw[i] - alloc[i], -i) for i in range(len(live))]
    order = sorted(range(len(live)), key=lambda i: remainders[i], reverse=True)
    k = 0
    while sum(alloc) < S:
        alloc[order[k % len(order)]] += 1
        k += 1
    return ResNetExport(runs=tuple((f, k, t / k) for (f, t), k in zip(live, alloc)),
                        source_T=T, dim=sched.dim)


def resnet_forward(net: ResNetExport, x) -> np.ndarray:
    """Forward pass z_{s+1} = z_s + delta_s f(z_s); batch-aware.

    A run of k layers is applied in one step where its composite map has a
    closed form: a frozen drive adds k * (delta * f(z)), and a field whose
    ``pwl`` fixes its kinks maps each point by ``PwlField.euler_steps``.
    Every other run, and a kink-fixing run in which a step would overshoot
    a kink, evaluates its layers one at a time.  The closed forms move
    outputs at roundoff against the per-layer loop.  Non-finite inputs
    raise ValueError, and the guard of ``flow_eval`` (BlowupError) holds
    after every closed-form run and after every layer of the loop, so the
    loop stops at the first layer past the guard, before it can overflow.
    """
    z = np.asarray(x, dtype=float).copy()
    if z.shape[-1:] != (net.dim,):
        raise ValueError(f"input shape {z.shape} incompatible with dim {net.dim}")
    if not np.all(np.isfinite(z)):
        raise ValueError("initial point must be finite")
    if z.size == 0:
        return z
    for f, k, d in net.runs:
        out = None
        if f.frozen_drive:
            out = z + k * (d * f.eval(z))
        elif f.pwl is not None and f.pwl.fixes_kinks:
            out = f.pwl.euler_steps(z, d, k)
        if out is None:
            out = z
            for _ in range(k):
                out = out + d * f.eval(out)
                _check_state(out)
        else:
            _check_state(out)
        z = out
    return z


def export_to_json(net: ResNetExport) -> dict:
    """JSON document {format_version: 2, runs: [{family_tag, params, layers,
    delta}], meta: {source_T, S, dim}}; each run's field is written once."""
    return {
        "format_version": EXPORT_FORMAT_VERSION,
        "runs": [dict(field_to_json(f), layers=k, delta=d) for f, k, d in net.runs],
        "meta": {"source_T": net.source_T, "S": net.S, "dim": net.dim},
    }


def export_from_json(doc: dict) -> ResNetExport:
    """Network from its JSON document, one field per run."""
    _require_json_type(doc, dict, "export document")
    if doc.get("format_version") != EXPORT_FORMAT_VERSION:
        raise ValueError(f"unsupported export format {doc.get('format_version')!r}; "
                         f"re-run `flowmap discretize` to write format {EXPORT_FORMAT_VERSION}")
    try:
        _require_json_type(doc["runs"], list, "export key 'runs'")
        runs = tuple((field_from_json(r), r["layers"], r["delta"]) for r in doc["runs"])
        meta = doc["meta"]
        _require_json_type(meta, dict, "export key 'meta'")
        net = ResNetExport(runs=runs, source_T=meta["source_T"], dim=meta["dim"])
        if meta["S"] != net.S:
            raise ValueError(f"meta.S={meta['S']!r} but the runs hold {net.S} layers")
    except KeyError as e:
        raise ValueError(f"export document, run or meta lacks key {e}") from None
    return net


def truncation_slope(sched: Schedule, S_list, probe_points=None):
    """Fitted log-log slope of the sup-grid network-vs-flow error in S.

    Returns (slope, errors); the slope is None when the errors are at
    roundoff (identity-like schedules).  Smooth-field schedules sit near -1.
    """
    S_list = list(S_list)
    if probe_points is None:
        grid = np.linspace(0.0, 1.0, 9)
        mesh = np.meshgrid(*([grid] * sched.dim), indexing="ij")
        probe_points = np.stack([m.ravel() for m in mesh], axis=1)
    probe_points = np.atleast_2d(np.asarray(probe_points, dtype=float))
    ref = flow_eval(sched, probe_points)
    errors = []
    for S in S_list:
        net = euler_discretize(sched, S)
        out = resnet_forward(net, probe_points)
        errors.append(float(np.max(np.linalg.norm(out - ref, axis=1))))
    errs = np.asarray(errors)
    if np.max(errs) < 1e-12:
        return None, errors
    slope = float(np.polyfit(np.log(S_list), np.log(np.maximum(errs, 1e-300)), 1)[0])
    return slope, errors

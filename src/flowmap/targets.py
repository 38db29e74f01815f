"""Target functions: built-in named targets and CSV-backed samples.

1D targets carry an optional exact piecewise-linear description, which the
rate machinery uses to compute total variation of the log-derivative without
sampling error.  CSV tables are interpolated monotonically (PCHIP), so an
increasing sample stays increasing.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Target1D",
    "PwlData",
    "builtin_target_1d",
    "target_1d_from_csv",
    "TargetSpec",
    "builtin_target_nd",
    "target_nd_from_csv",
    "parse_target",
    "BUILTIN_1D",
    "BUILTIN_ND",
]


@dataclass(frozen=True)
class PwlData:
    """Exact piecewise-linear description: breakpoints include both endpoints."""

    breakpoints: np.ndarray
    slopes: np.ndarray  # one per interval, all positive for increasing targets
    anchor: float  # value at breakpoints[0]

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        sl = np.asarray(self.slopes, dtype=float)
        if len(bp) != len(sl) + 1 or np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be increasing with one slope per interval")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "slopes", sl)

    def values(self) -> np.ndarray:
        inc = self.slopes * np.diff(self.breakpoints)
        return self.anchor + np.concatenate([[0.0], np.cumsum(inc)])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.breakpoints, x, side="right") - 1, 0, len(self.slopes) - 1)
        vals = self.values()
        out = vals[idx] + self.slopes[idx] * (x - self.breakpoints[idx])
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class Target1D:
    fn: Callable
    domain: tuple
    name: str = ""
    derivative: Optional[Callable] = None
    pwl: Optional[PwlData] = None
    increasing: bool = True

    def __call__(self, x):
        return self.fn(x)


def _smooth1(x):
    x = np.asarray(x, dtype=float)
    return x + 0.3 * np.sin(2 * np.pi * x) / (2 * np.pi * 0.9)


def _smooth1_deriv(x):
    x = np.asarray(x, dtype=float)
    return 1.0 + (0.3 / 0.9) * np.cos(2 * np.pi * x)


def _quad(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * (x * x + x)


_PWL4 = PwlData(np.array([0.0, 0.25, 0.5, 0.75, 1.0]),
                np.array([0.5, 2.0, 1.0, 3.0]), 0.0)
# Monotone log-derivative with extended TV exactly 1 (used in budget sweeps).
_MONO_TV1 = PwlData(np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]),
                    np.exp([0.125, 0.3, 0.5]), 0.0)


def _pwl_target(name: str, data: PwlData) -> Target1D:
    def deriv(x, data=data):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(data.breakpoints, x, side="right") - 1,
                      0, len(data.slopes) - 1)
        return data.slopes[idx]

    return Target1D(fn=data, domain=(float(data.breakpoints[0]), float(data.breakpoints[-1])),
                    name=name, derivative=deriv, pwl=data, increasing=bool(np.all(data.slopes > 0)))


BUILTIN_1D = {
    "identity": Target1D(fn=lambda x: np.asarray(x, dtype=float), domain=(0.0, 1.0),
                         name="identity", derivative=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                         pwl=PwlData(np.array([0.0, 1.0]), np.array([1.0]), 0.0)),
    "smooth1": Target1D(fn=_smooth1, domain=(0.0, 1.0), name="smooth1", derivative=_smooth1_deriv),
    "quad": Target1D(fn=_quad, domain=(0.0, 1.0), name="quad",
                     derivative=lambda x: np.asarray(x, dtype=float) + 0.5),
    "dec1": Target1D(fn=lambda x: 1.0 - np.asarray(x, dtype=float), domain=(0.0, 1.0),
                     name="dec1", derivative=lambda x: -np.ones_like(np.asarray(x, dtype=float)),
                     increasing=False),
    "pwl4": _pwl_target("pwl4", _PWL4),
    "mono_tv1": _pwl_target("mono_tv1", _MONO_TV1),
}


def builtin_target_1d(name: str) -> Target1D:
    if name not in BUILTIN_1D:
        raise ValueError(f"unknown 1D target {name!r}; available: {sorted(BUILTIN_1D)}")
    return BUILTIN_1D[name]


def target_1d_from_csv(path) -> Target1D:
    """Monotone interpolation of (x, phi(x)) sample rows."""
    from scipy.interpolate import PchipInterpolator

    xs, ys = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            try:
                x, y = float(row[0]), float(row[1])
            except ValueError:
                continue  # header row
            xs.append(x)
            ys.append(y)
    xs, ys = np.asarray(xs), np.asarray(ys)
    order = np.argsort(xs)
    xs, ys = xs[order], ys[order]
    if len(xs) < 2:
        raise ValueError("need at least two samples")
    interp = PchipInterpolator(xs, ys)
    return Target1D(fn=lambda x, f=interp: f(np.asarray(x, dtype=float)),
                    domain=(float(xs[0]), float(xs[-1])), name=str(path),
                    derivative=lambda x, f=interp.derivative(): f(np.asarray(x, dtype=float)),
                    increasing=bool(np.all(np.diff(ys) > 0)))


# -- nD targets ---------------------------------------------------------------


@dataclass(frozen=True)
class TargetSpec:
    """Target F: K -> R^m on a compact box K (rows of ``domain`` are axes)."""

    fn: Callable
    n: int
    m: int
    domain: np.ndarray
    name: str = ""
    p: Optional[float] = None

    def __post_init__(self):
        dom = np.asarray(self.domain, dtype=float).reshape(self.n, 2)
        object.__setattr__(self, "domain", dom)

    def __call__(self, x):
        return self.fn(x)


def _unit_box(n: int) -> np.ndarray:
    return np.tile([[0.0, 1.0]], (n, 1))


def builtin_target_nd(name: str, n: int = 2) -> TargetSpec:
    if name == "identity":
        return TargetSpec(fn=lambda x: np.asarray(x, dtype=float).copy(), n=n, m=n,
                          domain=_unit_box(n), name="identity")
    if name == "flip":
        def flip(x):
            x = np.asarray(x, dtype=float).copy()
            x[..., 0] = -x[..., 0]
            return x

        return TargetSpec(fn=flip, n=n, m=n, domain=_unit_box(n), name="flip")
    if name == "const":
        c = np.linspace(0.3, 0.7, n)

        def const(x, c=c):
            x = np.asarray(x, dtype=float)
            return np.broadcast_to(c, x.shape).copy()

        return TargetSpec(fn=const, n=n, m=n, domain=_unit_box(n), name="const")
    if name == "swirl":
        def swirl(x):
            x = np.asarray(x, dtype=float)
            out = x.copy()
            out[..., 0] = x[..., 0] + 0.25 * np.sin(np.pi * x[..., 1])
            out[..., 1] = x[..., 1] - 0.25 * np.sin(np.pi * x[..., 0])
            return out

        return TargetSpec(fn=swirl, n=n, m=n, domain=_unit_box(n), name="swirl")
    raise ValueError(f"unknown nD target {name!r}")


BUILTIN_ND = ("identity", "flip", "const", "swirl")


def target_nd_from_csv(path, n: int) -> TargetSpec:
    """Nearest-sample lookup table from rows x_1..x_n, y_1..y_m."""
    from scipy.spatial import cKDTree

    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                continue
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[1] <= n:
        raise ValueError(f"need rows with {n} inputs plus outputs")
    X, Y = data[:, :n], data[:, n:]
    m = Y.shape[1]

    def lookup(x, tree=cKDTree(X), Y=Y):
        x = np.asarray(x, dtype=float)
        _, nearest = tree.query(x.reshape(-1, x.shape[-1]))
        return Y[nearest].reshape(x.shape[:-1] + (Y.shape[1],))

    lo = X.min(axis=0)
    hi = X.max(axis=0)
    return TargetSpec(fn=lookup, n=n, m=m, domain=np.column_stack([lo, hi]), name=str(path))


def parse_target(spec: str, n: int = 2, kind: str = "1d"):
    """Resolve 'builtin:NAME' or 'csv:PATH' target descriptors."""
    if ":" in spec:
        scheme, rest = spec.split(":", 1)
    else:
        scheme, rest = "builtin", spec
    if kind == "1d":
        if scheme == "builtin":
            return builtin_target_1d(rest)
        if scheme == "csv":
            return target_1d_from_csv(rest)
    else:
        if scheme == "builtin":
            return builtin_target_nd(rest, n=n)
        if scheme == "csv":
            return target_nd_from_csv(rest, n=n)
    raise ValueError(f"unknown target descriptor {spec!r}")

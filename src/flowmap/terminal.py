"""Terminal maps: reducing R^n -> R^m approximation to domain transformation.

An affine map with full row rank covers any compact target range, so the flow
only has to steer each grid point into the preimage of its target value; the
terminal map's Lipschitz constant then transports the transformation error to
the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Schedule, flow_eval
from .targets import TargetSpec
from .util import MeasureResult, mc_lp_error

__all__ = ["TerminalMap", "CoveringError", "lift_targets", "compose_and_measure"]


class CoveringError(ValueError):
    """The terminal map's range does not cover the requested values."""


@dataclass(frozen=True)
class TerminalMap:
    """Affine terminal map g(x) = W x + c with W of shape (m, n)."""

    W: np.ndarray
    c: np.ndarray
    kind: str = "affine"

    def __post_init__(self):
        W = np.atleast_2d(np.asarray(self.W, dtype=float))
        c = np.asarray(self.c, dtype=float).reshape(-1)
        if c.shape != (W.shape[0],):
            raise ValueError(f"c must have shape ({W.shape[0]},)")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "c", c)

    @property
    def m(self) -> int:
        return self.W.shape[0]

    @property
    def n(self) -> int:
        return self.W.shape[1]

    @property
    def lipschitz_bound(self) -> float:
        return float(np.linalg.norm(self.W, 2))

    @property
    def surjective(self) -> bool:
        return bool(np.linalg.matrix_rank(self.W) == self.m)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return x @ self.W.T + self.c

    @staticmethod
    def identity(n: int) -> "TerminalMap":
        return TerminalMap(np.eye(n), np.zeros(n))

    @staticmethod
    def from_json(doc: dict) -> "TerminalMap":
        return TerminalMap(np.asarray(doc["W"]), np.asarray(doc["c"]), kind=doc.get("kind", "affine"))


def lift_targets(values, g: TerminalMap, tol: float = 1e-9) -> np.ndarray:
    """Minimum-norm preimages z with g(z) = value for each row of values.

    Exact for full-row-rank affine maps; a rank-deficient map with a value
    off its range is a covering-condition violation.
    """
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    if vals.shape[1] != g.m:
        raise ValueError(f"values have dim {vals.shape[1]}, terminal map outputs {g.m}")
    z = (vals - g.c) @ np.linalg.pinv(g.W).T
    residual = np.max(np.abs(z @ g.W.T + g.c - vals))
    scale = max(1.0, float(np.max(np.abs(vals))))
    if residual > tol * scale:
        raise CoveringError(f"values lie {residual:.3g} off the terminal map's range; "
                            "the covering condition F(K) within g(R^n) fails")
    return z


def compose_and_measure(g: TerminalMap, sched: Schedule, F: TargetSpec, p: float,
                        samples: int = 100_000, seed: int = 0) -> MeasureResult:
    """Monte-Carlo L^p(K) error of g composed with the schedule's flow vs F."""
    if g.n != sched.dim:
        raise ValueError("terminal map input dim != schedule dim")
    if g.m != F.m:
        raise ValueError("terminal map output dim != target output dim")

    def approx(x):
        return g(flow_eval(sched, x))

    return mc_lp_error(approx, F.fn, F.domain, p, samples, seed)

"""Terminal maps: reducing R^n -> R^m approximation to domain transformation.

An affine map with full row rank covers any compact target range, so the flow
only has to steer each grid point into the preimage of its target value; the
terminal map's Lipschitz constant then transports the transformation error to
the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _require_json_type, require_number_lists

__all__ = ["TerminalMap", "CoveringError", "lift_targets"]


class CoveringError(ValueError):
    """The terminal map's range does not cover the requested values."""


@dataclass(frozen=True)
class TerminalMap:
    """Affine terminal map g(x) = W x + c with finite W of shape (m, n)."""

    W: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        W = np.atleast_2d(np.asarray(self.W, dtype=float))
        c = np.asarray(self.c, dtype=float).reshape(-1)
        if c.shape != (W.shape[0],):
            raise ValueError(f"c must have shape ({W.shape[0]},)")
        for name, arr in (("W", W), ("c", c)):
            if not np.isfinite(arr).all():
                raise ValueError(f"terminal map {name} is not finite: {arr.tolist()}")
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

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return x @ self.W.T + self.c

    @staticmethod
    def from_json(doc: dict) -> "TerminalMap":
        """Map from its {kind: "affine" (optional), W, c} document; a missing
        key, or a W or c that is no list (of rows) of numbers, is named."""
        _require_json_type(doc, dict, "terminal map document")
        if doc.get("kind", "affine") != "affine":
            raise ValueError(f"terminal map key 'kind' must be 'affine', got {doc['kind']!r}")
        for key, depth in (("W", 2), ("c", 1)):
            if key not in doc:
                raise ValueError(f"terminal map document lacks key {key!r}")
            require_number_lists(doc[key], depth, f"terminal map key {key!r}")
        return TerminalMap(doc["W"], doc["c"])


def lift_targets(values, g: TerminalMap) -> np.ndarray:
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
    if residual > 1e-9 * scale:
        raise CoveringError(f"values lie {residual:.3g} off the terminal map's range; "
                            "the covering condition F(K) within g(R^n) fails")
    return z

"""Shared numeric helpers: Monte-Carlo L^p error with deterministic reduction."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = ["MeasureResult", "mc_lp_error", "require_lp_args", "collision_counts",
           "rank_spread", "spread_targets", "sup_probe_points"]


def collision_counts(points) -> list:
    """Per coordinate: number of unordered point pairs sharing that value exactly."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = []
    for i in range(pts.shape[1]):
        _, counts = np.unique(pts[:, i], return_counts=True)
        out.append(int(sum(c * (c - 1) // 2 for c in counts)))
    return out


def rank_spread(values, delta: float) -> np.ndarray:
    """Deterministic perturbation making values pairwise distinct.

    Sorted values gain delta per rank step, so the minimum gap becomes at
    least delta while no value moves by more than (len - 1) * delta.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    out = values.copy()
    out[order] += delta * np.arange(len(values))
    return out


def spread_targets(targets, eps: float) -> np.ndarray:
    """Copy of targets whose coordinates with exact ties get a rank spread.

    The spread step eps / (2 sqrt(n) max(1, m)) moves no target by more than eps / 2.
    """
    out = np.array(targets, dtype=float)
    m, n = out.shape
    delta = eps / (2.0 * math.sqrt(n) * max(1, m))
    for i, count in enumerate(collision_counts(out)):
        if count:
            out[:, i] = rank_spread(out[:, i], delta)
    return out


def sup_probe_points(nodes, seed: int) -> np.ndarray:
    """Sorted probe points for a 1D sup-error check over sorted nodes.

    The nodes, their midpoints and 4096 uniform points seeded from seed: the
    nodes alone show only the node-matching error.  Pass a construction's own
    partition nodes where it has them; with a plain grid instead, a partition
    finer than the grid's midpoints is seen between its nodes only by the
    seeded points.
    """
    nodes = np.asarray(nodes, dtype=float)
    extra = np.random.default_rng(seed).uniform(nodes[0], nodes[-1], 4096)
    return np.sort(np.concatenate([nodes, 0.5 * (nodes[1:] + nodes[:-1]), extra]))


@dataclass(frozen=True)
class MeasureResult:
    value: float
    stderr: float
    samples: int
    seed: int


# Monte-Carlo samples are evaluated in this many chunks, one after another.
# The compiled runs take their breakpoints from each chunk's hull, so the
# chunking fixes the images; it also bounds the temporaries.
MC_CHUNKS = 4


def require_lp_args(p, samples) -> None:
    """Raise a ValueError naming p unless a finite real >= 1, or samples unless an int >= 1."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 1.0 <= p < math.inf:
        raise ValueError(f"p must be a finite real number >= 1, got {p!r}")
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) or samples < 1:
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")


def _cell_order(chunk: np.ndarray, domain: np.ndarray) -> np.ndarray:
    """Row order of chunk by row-major cell on 2 ** (16 // n) bins per axis, one
    on a zero-width axis, so that every cell index fits 16 bits."""
    bins = 2 ** (16 // chunk.shape[1])
    width = domain[:, 1] - domain[:, 0]
    scale = np.divide(bins, width, where=width > 0, out=np.zeros(len(width)))
    key = np.zeros(len(chunk), dtype=np.int64)
    for k, lo in enumerate(domain[:, 0]):  # by column: numpy loops slowly over a short axis
        key = key * bins + np.clip(((chunk[:, k] - lo) * scale[k]).astype(np.int64), 0, bins - 1)
    return np.argsort(key.astype(np.uint16), kind="stable")


def mc_lp_error(f_approx, f_true, domain, p: float, samples: int, seed: int) -> MeasureResult:
    """Monte-Carlo estimate of the L^p(K) distance between two maps on a box.

    The sample set is fixed by the seed and split into ``MC_CHUNKS`` chunks,
    evaluated in turn, so the result is byte-identical for a given (seed,
    samples).  Each chunk is evaluated in cell order (``_cell_order``), so
    consecutive points meet the same interpolation segments; it keeps its
    members, so its hull.  ``value`` is the exact mean (``math.fsum``), which
    no order changes; ``stderr`` comes from a pairwise sum.  Bad p or samples
    raise ValueError.
    """
    require_lp_args(p, samples)
    domain = np.asarray(domain, dtype=float)
    n = domain.shape[0]
    rng = np.random.default_rng(seed)
    pts = rng.uniform(domain[:, 0], domain[:, 1], size=(samples, n))
    vol = float(np.prod(domain[:, 1] - domain[:, 0]))
    # np.array_split leaves empty chunks when samples < MC_CHUNKS.
    chunks = [c for c in np.array_split(pts, MC_CHUNKS) if len(c)]
    parts = []
    for chunk in chunks:
        chunk = np.take(chunk, _cell_order(chunk, domain), axis=0)
        gap = np.asarray(f_approx(chunk), dtype=float) - np.asarray(f_true(chunk), dtype=float)
        parts.append(np.linalg.norm(np.atleast_2d(gap.reshape(len(chunk), -1)), axis=1) ** p)
    vals = np.concatenate(parts)
    mean = math.fsum(vals.tolist()) / samples
    var = float(np.sum(np.square(vals - mean))) / max(1, samples - 1)  # pairwise, not BLAS
    se_mean = math.sqrt(var / samples)
    value = (mean * vol) ** (1.0 / p) if mean > 0 else 0.0
    if mean > 0:
        stderr = (vol ** (1.0 / p)) * (1.0 / p) * mean ** (1.0 / p - 1.0) * se_mean
    else:
        stderr = 0.0
    return MeasureResult(value=float(value), stderr=float(stderr), samples=samples, seed=seed)

"""Shared numeric helpers: Monte-Carlo L^p error with deterministic reduction."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = ["MeasureResult", "mc_lp_error", "worker_count", "collision_counts",
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

    def __float__(self):
        return self.value


# Monte-Carlo samples are split into this many chunks whatever the worker
# count, so each chunk's compiled runs see the same hull on every pool size.
MC_CHUNKS = 4


def worker_count() -> int:
    """Worker threads from FLOWMAP_THREADS (default 1); anything but an int >= 1 raises."""
    raw = os.environ.get("FLOWMAP_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"FLOWMAP_THREADS must be an integer >= 1, got {raw!r}")
    return workers


def mc_lp_error(f_approx, f_true, domain, p: float, samples: int, seed: int) -> MeasureResult:
    """Monte-Carlo estimate of the L^p(K) distance between two maps on a box.

    The sample set is fixed by the seed and split into ``MC_CHUNKS`` chunks
    whose partial sums are combined in a fixed order; the worker count
    (FLOWMAP_THREADS) only sets how many chunks run at once, so the result is
    byte-identical for a given (seed, samples) on any pool size.
    """
    domain = np.asarray(domain, dtype=float)
    n = domain.shape[0]
    rng = np.random.default_rng(seed)
    pts = rng.uniform(domain[:, 0], domain[:, 1], size=(samples, n))
    vol = float(np.prod(domain[:, 1] - domain[:, 0]))
    workers = worker_count()
    chunks = np.array_split(pts, MC_CHUNKS)

    def moment(chunk):
        gap = np.asarray(f_approx(chunk), dtype=float) - np.asarray(f_true(chunk), dtype=float)
        r = np.linalg.norm(np.atleast_2d(gap.reshape(len(chunk), -1)), axis=1)
        return r ** p

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(moment, chunks))
    else:
        parts = [moment(c) for c in chunks]
    vals = np.concatenate(parts)
    mean = math.fsum(vals.tolist()) / samples
    var = math.fsum(((vals - mean) ** 2).tolist()) / max(1, samples - 1)
    se_mean = math.sqrt(var / samples)
    value = (mean * vol) ** (1.0 / p) if mean > 0 else 0.0
    if mean > 0:
        stderr = (vol ** (1.0 / p)) * (1.0 / p) * mean ** (1.0 / p - 1.0) * se_mean
    else:
        stderr = 0.0
    return MeasureResult(value=float(value), stderr=float(stderr), samples=samples, seed=seed)

"""Shared numeric helpers: Monte-Carlo L^p error with deterministic reduction."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = ["MeasureResult", "mc_lp_error", "exact_sum", "require_lp_args", "collision_counts",
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


def require_lp_args(p, samples) -> None:
    """Raise a ValueError naming p unless a finite real >= 1, or samples unless an int >= 1."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 1.0 <= p < math.inf:
        raise ValueError(f"p must be a finite real number >= 1, got {p!r}")
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) or samples < 1:
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")


def _cell_order(pts: np.ndarray, domain: np.ndarray) -> np.ndarray:
    """Row order of pts by row-major cell on 2 ** (16 // n) bins per axis, one
    on a zero-width axis, so that every cell index fits 16 bits."""
    bins = 2 ** (16 // pts.shape[1])
    width = domain[:, 1] - domain[:, 0]
    scale = np.divide(bins, width, where=width > 0, out=np.zeros(len(width)))
    key = np.zeros(len(pts), dtype=np.int64)
    for k, lo in enumerate(domain[:, 0]):  # by column: numpy loops slowly over a short axis
        key = key * bins + np.clip(((pts[:, k] - lo) * scale[k]).astype(np.int64), 0, bins - 1)
    return np.argsort(key.astype(np.uint16), kind="stable")


# Below this bound on count * max|v|, no partial sum of ``math.fsum`` can
# overflow, and ``exact_sum`` need not follow its order.
_NO_OVERFLOW = 2.0 ** 1023
# Values per block in ``exact_sum``: small temporaries that stay in cache.
_BLOCK = 2 ** 14


def exact_sum(values) -> float:
    """The sum of a float64 array, correctly rounded: ``math.fsum``, bit for bit.

    Each value is split by ``np.frexp`` into an integer mantissa M (|M| <
    2^53) and an exponent e, and M into halves M = H 2^26 + L with |H| <=
    2^27 and 0 <= L < 2^26.  Block by block, ``np.bincount`` sums the halves
    per exponent (a float64 bin is exact while it sums at most 2^26 such
    halves, and a block holds 2^14 values), and int64 bins add the blocks
    up: at most 2^36 values may share an exponent, which is more than a
    64-bit address space holds.  Python ints then combine the bins, and one
    int division, correctly rounded as ``fsum`` is, gives the float.

    ``fsum`` raises OverflowError when a partial sum in its own order
    overflows, and gives inf, nan or ValueError on non-finite input.  Where
    count * max|v| could reach 2^1023, or a value is not finite, the sum is
    ``fsum`` itself, so both rules hold as they are.
    """
    v = np.asarray(values, dtype=float).ravel()
    if not float(np.max(np.abs(v), initial=0.0)) * len(v) < _NO_OVERFLOW:  # also NaN and inf
        return math.fsum(v.tolist())
    highs = np.zeros(2099, dtype=np.int64)  # bin e + 1074 for frexp's e in [-1073, 1024]
    lows = np.zeros(2099, dtype=np.int64)
    for start in range(0, len(v), _BLOCK):
        m, e = np.frexp(v[start:start + _BLOCK])
        m *= 2.0 ** 53  # v = m 2^(e - 53), m an integer below 2^53
        high = np.floor(m * 2.0 ** -26)
        m -= high * 2.0 ** 26  # the low half
        e += 1074
        highs += np.bincount(e, weights=high, minlength=2099).astype(np.int64)
        lows += np.bincount(e, weights=m, minlength=2099).astype(np.int64)
    live = np.flatnonzero(highs | lows)
    total = sum((h << (k + 26)) + (lo << k)
                for k, h, lo in zip(live.tolist(), highs[live].tolist(), lows[live].tolist()))
    return total / (1 << (1074 + 53))


def _uniform_samples(domain: np.ndarray, samples: int, seed: int) -> np.ndarray:
    """``rng.uniform(lo, hi, (samples, n))`` bit for bit: ``rng.random``, then
    lo + (hi - lo) u in place, column by column."""
    pts = np.random.default_rng(seed).random((samples, len(domain)))
    for col, (lo, hi) in zip(pts.T, domain):
        col *= hi - lo
        col += lo
    return pts


def mc_lp_error(f_approx, f_true, domain, p: float, samples: int, seed: int) -> MeasureResult:
    """Monte-Carlo estimate of the L^p(K) distance between two maps on a box.

    The sample set is fixed by the seed, so the result is byte-identical
    for a given (seed, samples).  All samples are evaluated as one batch in
    cell order (``_cell_order``), so consecutive points meet the same
    interpolation segments of a compiled flow; the batch's hull, which
    fixes the compiled flows' breakpoints, is the hull of the samples.  The
    samples are drawn as ``rng.random`` and scaled column by column in
    place, which gives ``rng.uniform``'s values bit for bit, and the norm is
    a column sum of squares; temporaries are O(samples * n).  ``value`` is
    the exact mean (``exact_sum``), which no order changes; ``stderr`` comes
    from a pairwise sum.  Bad p or samples raise ValueError.
    """
    require_lp_args(p, samples)
    domain = np.asarray(domain, dtype=float)
    pts = _uniform_samples(domain, samples, seed)
    pts = np.take(pts, _cell_order(pts, domain), axis=0)
    approx, true = np.broadcast_arrays(np.asarray(f_approx(pts), dtype=float),
                                       np.asarray(f_true(pts), dtype=float))
    approx, true = approx.reshape(samples, -1), true.reshape(samples, -1)
    del pts
    vals = np.zeros(samples)
    for k in range(approx.shape[1]):  # in column order, as np.linalg.norm sums below 8 columns
        gap = approx[:, k] - true[:, k]
        vals += gap * gap
    del approx, true
    np.sqrt(vals, out=vals)
    vals **= p
    mean = exact_sum(vals) / samples
    vals -= mean
    var = float(np.sum(np.square(vals, out=vals))) / max(1, samples - 1)  # pairwise, not BLAS
    se_mean = math.sqrt(var / samples)
    vol = float(np.prod(domain[:, 1] - domain[:, 0]))
    value = (mean * vol) ** (1.0 / p) if mean > 0 else 0.0
    if mean > 0:
        stderr = (vol ** (1.0 / p)) * (1.0 / p) * mean ** (1.0 / p - 1.0) * se_mean
    else:
        stderr = 0.0
    return MeasureResult(value=float(value), stderr=float(stderr), samples=samples, seed=seed)

"""Shared helpers: Monte-Carlo measurement determinism, the exact sum, collision counts."""

import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from flowmap.core import flow_eval
from flowmap.families import relu_well_nd
from flowmap.highd import approximate_lp
from flowmap.targets import builtin_target_nd
from flowmap.util import (_cell_order, collision_counts, exact_sum, mc_lp_error, rank_spread,
                          sup_probe_points)

BOX = [[0.0, 1.0], [0.0, 1.0]]


def test_collision_counts():
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 2.0]])
    assert collision_counts(pts) == [3, 1]
    assert collision_counts(np.array([[0.1, 0.2]])) == [0, 0]


def test_rank_spread_min_gap():
    vals = np.array([0.5, 0.5, 0.5, 0.1])
    out = rank_spread(vals, 0.01)
    gaps = np.diff(np.sort(out))
    assert np.min(gaps) >= 0.01 - 1e-15
    assert np.max(np.abs(out - vals)) <= 0.03 + 1e-15


def test_mc_value_and_stderr():
    res = mc_lp_error(lambda x: x, lambda x: x + np.array([0.3, 0.4]),
                      BOX, 2.0, 10_000, seed=0)
    assert res.value == pytest.approx(0.5, abs=1e-12)  # constant gap, no variance
    assert res.stderr <= 1e-12


def test_mc_reads_no_thread_variable_and_loads_no_pool(monkeypatch):
    def run():
        return mc_lp_error(lambda x: x, lambda x: np.sin(3 * x), BOX, 1.5, 20_000, seed=7)

    monkeypatch.delenv("FLOWMAP_THREADS", raising=False)
    base = run()
    monkeypatch.setenv("FLOWMAP_THREADS", "abc")
    res = run()
    assert (res.value, res.stderr) == (base.value, base.stderr)
    # A fresh interpreter, since this one may have loaded the module already.
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, flowmap; print('concurrent.futures' in sys.modules)"],
                          cwd=Path(__file__).resolve().parents[1],
                          env=dict(os.environ, PYTHONPATH="src"),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_mc_value_is_the_exact_mean_over_the_unordered_batch():
    # The batch is evaluated in cell order but keeps its members, so its
    # compiled runs see the same hull and every image is bitwise the same;
    # the exact mean does not depend on the order.
    F = builtin_target_nd("flip", 2)
    sched, _ = approximate_lp(F, eps=0.5, p=1.0, well=relu_well_nd(2), grid_N=4, seed=1,
                              mc_samples=1000)
    p, samples = 1.5, 20_000
    res = mc_lp_error(lambda x: flow_eval(sched, x), F.fn, F.domain, p, samples, seed=2)
    dom = np.asarray(F.domain, dtype=float)
    pts = np.random.default_rng(2).uniform(dom[:, 0], dom[:, 1], size=(samples, 2))
    vals = np.linalg.norm(flow_eval(sched, pts) - F.fn(pts), axis=1) ** p
    vol = float(np.prod(dom[:, 1] - dom[:, 0]))
    mean = math.fsum(vals.tolist()) / samples
    var = math.fsum(((vals - mean) ** 2).tolist()) / (samples - 1)
    assert res.value == (mean * vol) ** (1.0 / p)
    stderr = vol ** (1.0 / p) * (1.0 / p) * mean ** (1.0 / p - 1.0) * math.sqrt(var / samples)
    assert res.stderr == pytest.approx(stderr, rel=1e-15, abs=0.0)


def _fsum_or_error(values):
    try:
        return math.fsum(values)
    except (OverflowError, ValueError) as e:
        return type(e)


def assert_exact_sum_is_fsum(values):
    ref = _fsum_or_error(list(values))
    if isinstance(ref, type):
        with pytest.raises(ref):
            exact_sum(np.array(values, dtype=float))
        return
    got = exact_sum(np.array(values, dtype=float))
    assert type(got) is float
    if math.isnan(ref):
        assert math.isnan(got)
    else:
        assert got == ref and math.copysign(1.0, got) == math.copysign(1.0, ref)


# Values of every binary exponent, subnormals and zeros among them, but small
# enough that the vectorised sum runs; and any float at all, where the sum
# may defer to ``fsum`` for its overflow and special-value rules.
SCALED = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1000))
EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         1.7976931348623157e308, -1.7976931348623157e308, 2.0 ** 1013,
                         math.inf, -math.inf, math.nan])


@given(st.lists(st.one_of(SCALED, EDGES, st.floats()), max_size=40))
@example([])
@example([-0.0])
@example([5e-324])
@example([1.7976931348623157e308, 1.7976931348623157e308])
@example([1.7976931348623157e308, 1.7976931348623157e308, -1.7976931348623157e308])
@example([math.inf, 1.0])
@example([math.inf, -math.inf])
@example([math.nan, 1.0])
@example([1e16, 1.0, -1e16])
def test_exact_sum_is_fsum(values):
    assert_exact_sum_is_fsum(values)


@given(st.lists(SCALED, max_size=40))
def test_exact_sum_of_scaled_values_is_fsum(values):
    assert_exact_sum_is_fsum(values)


def test_exact_sum_is_fsum_over_many_blocks():
    # More values than one block of bins holds, one exponent shared by all
    # (the largest mantissa, both signs), and sets from the Monte-Carlo use.
    rng = np.random.default_rng(0)
    cases = [rng.random(100_001) ** 1.7, rng.normal(0.0, 1e-3, 70_000),
             rng.lognormal(0.0, 10.0, 70_000), np.full(70_000, 1.0 - 2.0 ** -53),
             np.full(70_000, -(1.0 - 2.0 ** -53)), rng.random(50_000) * 2.0 ** -1060,
             rng.normal(size=50_000) * 2.0 ** 1000]
    for vals in cases:
        assert exact_sum(vals) == math.fsum(vals.tolist())
    # Both sides of the bound where the sum defers to fsum: 2^1023 / count.
    for scale in (2.0 ** 1006, 2.0 ** 1008):
        vals = np.full(2 ** 16, scale) * rng.random(2 ** 16)
        assert exact_sum(vals) == math.fsum(vals.tolist())


def test_cell_order_groups_rows_by_cell():
    rng = np.random.default_rng(0)
    dom = np.array([[0.0, 1.0], [-2.0, 2.0]])
    chunk = rng.uniform(dom[:, 0], dom[:, 1], size=(5_000, 2))
    ordered = chunk[_cell_order(chunk, dom)]
    cells = np.floor((ordered - dom[:, 0]) / (dom[:, 1] - dom[:, 0]) * 256).astype(int)
    key = cells[:, 0] * 256 + cells[:, 1]
    assert np.all(np.diff(key) >= 0)
    assert sorted(map(tuple, ordered)) == sorted(map(tuple, chunk))


def test_mc_degenerate_boxes():
    # A zero-width axis gets one bin (no division by its width) and a zero
    # volume; at n = 17 every axis has one bin and every key is 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flat = mc_lp_error(lambda x: x, lambda x: np.sin(3 * x), [[0.0, 1.0], [0.5, 0.5]],
                           1.0, 1_000, seed=0)
    assert flat.value == 0.0
    res = mc_lp_error(lambda x: x, lambda x: x + 0.5, [[0.0, 1.0]] * 17, 2.0, 1_000, seed=0)
    assert res.value == pytest.approx(0.5 * math.sqrt(17), rel=1e-12)


BAD_LP_ARGS = [
    (float("nan"), 10, "p must be a finite real number >= 1, got nan"),
    (-1.0, 10, "p must be a finite real number >= 1, got -1.0"),
    (0, 10, "p must be a finite real number >= 1, got 0"),
    (0.5, 10, "p must be a finite real number >= 1, got 0.5"),
    (float("inf"), 10, "p must be a finite real number >= 1, got inf"),
    (True, 10, "p must be a finite real number >= 1, got True"),
    ("2", 10, "p must be a finite real number >= 1, got '2'"),
    (1.0, 0, "samples must be an integer >= 1, got 0"),
    (1.0, -5, "samples must be an integer >= 1, got -5"),
    (1.0, 2.0, "samples must be an integer >= 1, got 2.0"),
    (1.0, True, "samples must be an integer >= 1, got True"),
]


@pytest.mark.parametrize("p, samples, match", BAD_LP_ARGS)
def test_bad_p_and_samples_rejected(p, samples, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        mc_lp_error(lambda x: x, lambda x: x + 0.1, BOX, p, samples, seed=0)
    with pytest.raises(ValueError, match=re.escape(match)):
        approximate_lp(builtin_target_nd("flip", 2), eps=0.5, p=p, well=relu_well_nd(2),
                       mc_samples=samples)


@pytest.mark.parametrize("samples", [1, 2, 3, np.int64(100)])
def test_few_samples_and_integral_p_accepted(samples):
    # Fewer samples than chunks once raised a numpy reshape error.
    res = mc_lp_error(lambda x: x, lambda x: x + np.array([0.3, 0.4]), BOX, 2, samples, seed=0)
    assert res.value == pytest.approx(0.5, abs=1e-12) and res.samples == samples


def test_mc_zero_distance():
    res = mc_lp_error(lambda x: x, lambda x: x, BOX, 1.0, 1_000, seed=0)
    assert res.value == 0.0 and res.stderr == 0.0


def test_sup_probe_points_cover_midpoints_and_are_seeded():
    nodes = np.linspace(0.0, 1.0, 4097)
    pts = sup_probe_points(nodes, seed=3)
    assert len(pts) == 4097 + 4096 + 4096
    assert np.all(np.diff(pts) >= 0.0)
    assert pts[0] >= 0.0 and pts[-1] <= 1.0
    assert np.isin(np.arange(1, 8192, 2) / 8192.0, pts).all()
    np.testing.assert_array_equal(pts, sup_probe_points(nodes, seed=3))
    assert not np.array_equal(pts, sup_probe_points(nodes, seed=4))
    # Uneven nodes: every node and every midpoint between neighbours is probed.
    uneven = sup_probe_points([0.0, 0.25, 0.375, 1.0, 2.5], seed=0)
    assert np.isin([0.0, 0.125, 0.25, 0.3125, 0.375, 0.6875, 1.0, 1.75, 2.5], uneven).all()

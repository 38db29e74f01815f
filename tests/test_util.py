"""Shared helpers: Monte-Carlo measurement determinism and collision counts."""

import numpy as np
import pytest

from flowmap.core import flow_eval
from flowmap.families import relu_well_nd
from flowmap.highd import approximate_lp
from flowmap.targets import builtin_target_nd
from flowmap.util import (collision_counts, mc_lp_error, rank_spread, sup_probe_points,
                          worker_count)

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


def test_mc_independent_of_worker_count(monkeypatch):
    def run():
        return mc_lp_error(lambda x: x, lambda x: np.sin(3 * x),
                           BOX, 1.5, 20_000, seed=7)

    monkeypatch.delenv("FLOWMAP_THREADS", raising=False)
    base = run()
    monkeypatch.setenv("FLOWMAP_THREADS", "4")
    threaded = run()
    assert base.value == threaded.value
    assert base.stderr == threaded.stderr


def test_mc_of_a_built_schedule_independent_of_worker_count(monkeypatch):
    # Compiled runs take their breakpoints from each chunk's hull, so the
    # value is the same on every pool size only if the chunks are.
    F = builtin_target_nd("flip", 2)
    sched, _ = approximate_lp(F, eps=0.5, p=1.0, well=relu_well_nd(2), grid_N=4, seed=1,
                              mc_samples=1000)
    results = []
    for workers in ("1", "2", "4"):
        monkeypatch.setenv("FLOWMAP_THREADS", workers)
        results.append(mc_lp_error(lambda x: flow_eval(sched, x), F.fn, F.domain, 1.0,
                                   20_000, seed=2))
    assert len({(r.value, r.stderr) for r in results}) == 1


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "", "2.5"])
def test_bad_worker_count_rejected(monkeypatch, raw):
    monkeypatch.setenv("FLOWMAP_THREADS", raw)
    with pytest.raises(ValueError, match=f"FLOWMAP_THREADS must be an integer >= 1, got '{raw}'"):
        worker_count()
    # mc_lp_error reads the count before it starts any worker.
    with pytest.raises(ValueError, match="FLOWMAP_THREADS"):
        mc_lp_error(lambda x: x, lambda x: x, BOX, 1.0, 10, seed=0)


def test_worker_count_reads_the_variable(monkeypatch):
    monkeypatch.delenv("FLOWMAP_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("FLOWMAP_THREADS", "3")
    assert worker_count() == 3


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

"""Shared helpers: Monte-Carlo measurement determinism and collision counts."""

import numpy as np
import pytest

from flowmap.util import collision_counts, mc_lp_error, rank_spread, sup_probe_points

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

"""Target abstractions: builtins, piecewise-linear data, CSV loading."""

import tracemalloc

import numpy as np
import pytest

from flowmap.targets import (PwlData, builtin_target_1d, builtin_target_nd,
                             parse_target, target_1d_from_csv, target_nd_from_csv)


def test_pwl_eval_and_values():
    data = PwlData(np.array([0.0, 0.5, 1.0]), np.array([2.0, 1.0]), 0.1)
    np.testing.assert_allclose(data.values(), [0.1, 1.1, 1.6])
    assert data(0.25) == pytest.approx(0.6)
    assert data(0.75) == pytest.approx(1.35)


def test_builtin_registry():
    for name in ("identity", "smooth1", "quad", "pwl4", "mono_tv1"):
        t = builtin_target_1d(name)
        assert t.increasing
    assert not builtin_target_1d("dec1").increasing
    with pytest.raises(ValueError):
        builtin_target_1d("nope")


def test_smooth1_is_increasing():
    t = builtin_target_1d("smooth1")
    xs = np.linspace(0, 1, 2001)
    assert np.all(np.diff(t.fn(xs)) > 0)
    assert np.min(t.derivative(xs)) > 0.5


def test_csv_1d_monotone_interpolation(tmp_path):
    xs = np.linspace(0, 1, 9)
    ys = xs ** 2 + 0.5 * xs
    path = tmp_path / "t.csv"
    path.write_text("x,y\n" + "\n".join(f"{a},{b}" for a, b in zip(xs, ys)))
    t = target_1d_from_csv(path)
    assert t.increasing
    fine = np.linspace(0, 1, 501)
    out = np.asarray(t.fn(fine))
    assert np.all(np.diff(out) >= 0)  # PCHIP preserves monotonicity
    assert float(np.max(np.abs(out - (fine ** 2 + 0.5 * fine)))) <= 5e-3


def test_csv_nd_lookup(tmp_path):
    rows = ["0,0,1,2", "1,0,3,4", "0,1,5,6"]
    path = tmp_path / "g.csv"
    path.write_text("\n".join(rows))
    t = target_nd_from_csv(path, n=2)
    assert t.m == 2
    np.testing.assert_array_equal(t.fn(np.array([0.1, -0.1])), [1.0, 2.0])
    np.testing.assert_array_equal(t.fn(np.array([0.9, 0.1])), [3.0, 4.0])


def _write_table(path, X, Y):
    path.write_text("\n".join(",".join(repr(float(v)) for v in row)
                              for row in np.hstack([X, Y])))


def test_csv_nd_lookup_matches_brute_force_argmin(tmp_path):
    rng = np.random.default_rng(5)
    X, Y = rng.uniform(0.0, 1.0, (300, 3)), rng.normal(size=(300, 2))
    path = tmp_path / "r.csv"
    _write_table(path, X, Y)
    q = rng.uniform(-0.1, 1.1, (40, 25, 3))
    d2 = ((q.reshape(-1, 1, 3) - X[None, :, :]) ** 2).sum(axis=2)
    expect = Y[np.argmin(d2, axis=1)].reshape(40, 25, 2)
    np.testing.assert_array_equal(target_nd_from_csv(path, n=3).fn(q), expect)


def test_csv_nd_lookup_memory_is_not_samples_times_rows(tmp_path):
    rng = np.random.default_rng(6)
    path = tmp_path / "big.csv"
    _write_table(path, rng.uniform(0.0, 1.0, (2000, 2)), rng.normal(size=(2000, 2)))
    t = target_nd_from_csv(path, n=2)
    pts = rng.uniform(0.0, 1.0, (5000, 2))
    tracemalloc.start()
    try:
        t.fn(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20


def test_parse_target():
    assert parse_target("builtin:identity", kind="1d").name == "identity"
    assert parse_target("flip", n=2, kind="nd").name == "flip"
    with pytest.raises(ValueError):
        parse_target("ftp:whatever", kind="1d")
    with pytest.raises(ValueError):
        builtin_target_nd("nope", 2)

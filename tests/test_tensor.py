"""Tensor-product fields and shear-based point operations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowmap.core import Schedule, flow_eval, schedule_from_json
from flowmap.families import field_from_terms_1d
from flowmap.highd import build_grid_target
from flowmap.rates import translation_gadget
from flowmap.targets import builtin_target_nd
from flowmap.tensor import (shear_parts, shear_schedule, tensor_field,
                            tensor_transport)
from helpers import RK12, term_lists

# A co-moving stage and its restore stage (g = 0.5 relu(x - 0.25) - 0.375
# relu(-x - 0.125), tau 0.75, i = 0, j = 1, sign -1) as earlier releases wrote
# them: each a restriction with arbitrary A of the tensor field of g.
RESTRICTED_TENSOR_SHEAR = {"dim": 2, "steps": [
    {"family_tag": "restricted", "tau": 0.75, "params": {
        "inner": {"family_tag": "tensor", "params": {
            "n": 2, "terms": [[0.5, 1.0, -0.25], [-0.375, -1.0, -0.125]],
            "inner": {"family_tag": "relu", "params": {
                "V": [[0.5, -0.375]], "W": [[1.0], [-1.0]], "b": [-0.25, -0.125]}}}},
        "D": [-1.0, 1.0], "A": [[0.0, 1.0], [0.0, 1.0]], "b": [0.0, 0.0],
        "regime": "tensor"}},
    {"family_tag": "restricted", "tau": 0.75, "params": {
        "inner": {"family_tag": "tensor", "params": {
            "n": 2, "terms": [[0.5, 1.0, -0.25], [-0.375, -1.0, -0.125]],
            "inner": {"family_tag": "relu", "params": {
                "V": [[0.5, -0.375]], "W": [[1.0], [-1.0]], "b": [-0.25, -0.125]}}}},
        "D": [0.0, -1.0], "A": [[0.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0],
        "regime": "tensor"}},
]}

# Schedules with a step of each family tag that is no longer registered.
DROPPED_TAGS = {
    "restricted": RESTRICTED_TENSOR_SHEAR,
    "sigmoid_smn": {"dim": 1, "steps": [
        {"family_tag": "sigmoid_smn", "tau": 0.5, "params": {"M": 100, "N": 10, "dim": 1}}]},
    "block": {"dim": 1, "steps": [
        {"family_tag": "block", "tau": 0.5, "params": {
            "V": [[1.0]], "W2": [[1.0]], "b2": [0.0], "W1": [[1.0]], "b1": [0.0],
            "sigma": "tanh"}}]},
}


class TestTensorField:
    def test_zero_inner(self):
        g = field_from_terms_1d([(0.0, 1.0, 0.0)])
        tf = tensor_field(g, 3)
        np.testing.assert_array_equal(tf.eval(np.array([1.0, -2.0, 0.5])), np.zeros(3))

    def test_relu_coordinatewise(self):
        g = field_from_terms_1d([(1.0, 1.0, -1.0)])  # relu(x - 1)
        tf = tensor_field(g, 2)
        np.testing.assert_allclose(tf.eval(np.array([2.0, 0.0])), [1.0, 0.0])

    def test_permutation_equivariance(self):
        g = field_from_terms_1d([(0.7, 1.0, 0.3), (-0.2, -1.0, 0.1)])
        tf = tensor_field(g, 3)
        rng = np.random.default_rng(2)
        x = rng.normal(size=3)
        perm = [2, 0, 1]
        np.testing.assert_allclose(tf.eval(x[perm]), tf.eval(x)[perm], rtol=1e-14)

    def test_exact_flow_matches_scalar_flow(self):
        g = field_from_terms_1d([(0.5, 1.0, 0.0), (-0.5, -1.0, 0.0)])
        tf = tensor_field(g, 2)
        x = np.array([0.4, -1.1])
        out = tf.exact_flow(x, 0.7)
        expect = [g.pwl.flow_scalar(0.4, 0.7), g.pwl.flow_scalar(-1.1, 0.7)]
        np.testing.assert_allclose(out, expect, rtol=1e-15)
        assert tf.pwl is g.pwl
        assert schedule_from_json({"dim": 2, "steps": [dict(
            family_tag=tf.tag, params=tf.params, tau=0.7)]}).steps[0][0].pwl.terms.tolist() \
            == g.pwl.terms.tolist()


class TestShear:
    def test_empty_schedule_identity(self):
        sched = shear_schedule(Schedule((), 1), 0, 1, 2)
        assert len(sched) == 0

    def test_translation_shear(self):
        gsched = translation_gadget(1.0, 0.01)
        sched = shear_schedule(gsched, 0, 1, 2)
        out = flow_eval(sched, np.array([[0.2, 0.5]]))
        np.testing.assert_allclose(out, [[1.7, 0.5]], atol=1e-9)

    @given(term_lists, st.floats(0.0, 1.0), st.sampled_from([2, 3]),
           st.sampled_from([1.0, -1.0]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_conserved_quantity_along_comove(self, terms, tau, n, sign, data):
        i, j = data.draw(st.permutations(range(n)))[:2]
        z = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
        g = Schedule(((field_from_terms_1d(terms), tau),), 1)
        (f, t), = shear_parts(g, i, j, n, sign).comove.steps
        out = f.exact_flow(z, t)
        oracle = flow_eval(Schedule(((f, t),), n), z, RK12)
        np.testing.assert_allclose(out, oracle, rtol=5e-9, atol=5e-9)
        roundoff = 8 * np.finfo(float).eps * float(np.sum(np.abs([z[i], z[j], out[i], out[j]])))
        assert abs((out[i] - sign * out[j]) - (z[i] - sign * z[j])) <= roundoff
        rest = [k for k in range(n) if k not in (i, j)]
        np.testing.assert_array_equal(out[rest], z[rest])

    @pytest.mark.parametrize("tag", list(DROPPED_TAGS))
    def test_dropped_tags_rejected(self, tag):
        # Files written by earlier versions with these steps are refused by name.
        with pytest.raises(ValueError, match=f"unknown family tag '{tag}'; "
                                             "registered tags: relu, tensor$"):
            schedule_from_json(DROPPED_TAGS[tag])

    def test_frozen_coordinates_to_1e12(self):
        gsched = translation_gadget(0.5, 0.02)
        sched = shear_schedule(gsched, 0, 2, 3)
        x = np.array([[0.1, 0.7, 0.4]])
        out = flow_eval(sched, x)
        # coordinate 1 is neither sheared nor controlling: exactly fixed
        assert abs(out[0, 1] - 0.7) <= 1e-12
        assert abs(out[0, 2] - 0.4) <= 1e-12  # control restored exactly

    def test_difference_of_increasing_bump(self):
        # shear by a non-monotone function of x_j built as P - Q on 3 points
        from flowmap.tensor import _difference_shear

        absc = np.array([0.2, 0.5, 0.8])
        corr = np.array([0.3, -0.2, 0.1])
        sched = _difference_shear(absc, corr, 0, 1, 2)
        pts = np.stack([np.full(3, 0.4), absc], axis=1)
        out = flow_eval(sched, pts)
        np.testing.assert_allclose(out[:, 0], 0.4 + corr, atol=1e-9)
        np.testing.assert_allclose(out[:, 1], absc, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            shear_schedule(Schedule((), 1), 1, 1, 2)


@st.composite
def lattice_problems(draw):
    """Distinct sources and colliding targets on an L^n lattice, m > L points.

    With more points than lattice values per coordinate, every coordinate of
    the sources collides and separation has work to do.
    """
    n = draw(st.sampled_from([2, 3]))
    L = draw(st.integers(2, 4))
    lattice = np.stack(np.meshgrid(*[np.linspace(0.0, 1.0, L)] * n, indexing="ij"),
                       axis=-1).reshape(-1, n)
    m = draw(st.integers(L + 1, min(40, len(lattice))))
    src = draw(st.lists(st.integers(0, len(lattice) - 1), min_size=m, max_size=m,
                        unique=True))
    dst = draw(st.lists(st.integers(0, len(lattice) - 1), min_size=m, max_size=m))
    eps = 10.0 ** draw(st.floats(-4.0, -1.0))
    return lattice[src], lattice[dst], eps


class TestTensorTransport:
    def test_identity(self):
        xs = np.array([[0.1, 0.4], [0.6, 0.2]])
        sched = tensor_transport(xs, xs, eps=1e-3)
        out = flow_eval(sched, xs)
        assert float(np.max(np.abs(out - xs))) <= 1e-9

    def test_shared_coordinate_separated_then_matched(self):
        xs = np.array([[0.5, 0.2], [0.5, 0.8]])
        ys = np.array([[0.1, 0.3], [0.9, 0.6]])
        sched, trace = tensor_transport(xs, ys, eps=1e-3, return_trace=True)
        assert any(rec["kind"] == "separate" for rec in trace)
        out = flow_eval(sched, xs)
        assert float(np.max(np.abs(out - ys))) <= 1e-3

    def test_three_points_2d(self):
        xs = np.array([[0.1, 0.2], [0.4, 0.5], [0.8, 0.9]])
        ys = np.array([[0.3, 0.7], [0.2, 0.1], [0.9, 0.4]])
        sched = tensor_transport(xs, ys, eps=1e-3)
        out = flow_eval(sched, xs)
        assert float(np.max(np.abs(out - ys))) <= 1e-3

    @pytest.mark.parametrize("n,N", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4),
                                     (4, 2), (4, 3)])
    def test_identity_grid_corners(self, n, N):
        grid = build_grid_target(builtin_target_nd("identity", n), N, p=1)
        sched, trace = tensor_transport(grid.corners, grid.values, eps=1e-3,
                                        return_trace=True)
        gap = np.max(np.linalg.norm(flow_eval(sched, grid.corners) - grid.values, axis=1))
        assert gap < 1e-3
        assert 0 < sum(rec["kind"] == "separate" for rec in trace) <= n * (n - 1)

    @given(lattice_problems())
    @settings(max_examples=60, deadline=None)
    def test_lattice_subsets_land_within_eps(self, problem):
        xs, ys, eps = problem
        sched, trace = tensor_transport(xs, ys, eps=eps, return_trace=True)
        assert np.max(np.linalg.norm(flow_eval(sched, xs) - ys, axis=1)) <= eps
        separations = [rec for rec in trace if rec["kind"] == "separate"]
        assert separations
        assert all(rec["collisions_after"] < rec["collisions_before"] for rec in separations)

    def test_separation_shift_below_noise_floor_fails_up_front(self):
        xs = np.array([[0.5, 0.2], [0.5, 0.8]])
        with pytest.raises(RuntimeError, match=r"below 8 noise floors .*eps 1e-08, m 2"):
            tensor_transport(xs, xs, eps=1e-8)

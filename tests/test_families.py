"""Control families, well functions, restricted affine invariance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowmap import families as fam
from flowmap.core import Schedule, flow_eval
from flowmap.families import AffineRestriction, apply_restriction
from helpers import RK12, biases, entries, term_lists


def assert_well_contract(well, tol=1e-12, samples=5000):
    """The field is within tol of 0 on the zero box and has the declared
    component signs on rays beyond it along every axis."""
    rng = np.random.default_rng(0)
    box = well.zero_box
    inside = rng.uniform(box[:, 0], box[:, 1], size=(samples, well.dim))
    assert float(np.max(np.abs(well.field.eval(inside)))) <= tol
    ts = np.linspace(1e-6, 3.0, samples // 10)
    for axis in range(well.dim):
        for sign, edge, step in ((well.outside_sign.left, box[axis, 0], -ts),
                                 (well.outside_sign.right, box[axis, 1], ts)):
            pts = np.tile(box.mean(axis=1), (len(ts), 1))
            pts[:, axis] = edge + step
            assert np.all(sign * well.field.eval(pts) > 0.0)


class TestReluField:
    def test_zero_V_gives_zero_field(self):
        f = fam.relu_field(np.zeros((2, 3)), np.ones((3, 2)), np.ones(3))
        z = np.array([[0.3, -0.7], [2.0, 1.0]])
        np.testing.assert_array_equal(f.eval(z), np.zeros((2, 2)))

    def test_1d_well_vanishes_on_interval(self):
        w = fam.relu_well_1d(-0.5, 1.5)
        inside = np.linspace(-0.5, 1.5, 101)[:, None]
        np.testing.assert_array_equal(w.field.eval(inside), np.zeros((101, 1)))
        assert w.field.eval(np.array([2.5]))[0] == pytest.approx(0.5)
        assert w.field.eval(np.array([-1.5]))[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_nd_well_value(self, n):
        w = fam.relu_well_nd(n)
        x = np.zeros(n)
        x[0] = 2.0
        np.testing.assert_allclose(w.field.eval(x), np.full(n, 1.0 / (2 * n)), rtol=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fam.relu_field(np.zeros((2, 3)), np.ones((3, 3)), np.ones(3))
        with pytest.raises(ValueError):
            fam.relu_field(np.zeros((2, 3)), np.ones((3, 2)), np.ones(4))

    # Nonzero entries in one row or one column (n == 1, q == 1, or zeros
    # drawn elsewhere) take the Euclidean norm in closed form; other
    # matrices take the SVD.
    @given(st.sampled_from([(1, 1), (1, 2), (1, 5), (2, 1), (5, 1), (2, 2), (3, 2)]),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_lipschitz_is_operator_norm_product(self, shape, data):
        n, q = shape
        vals = st.floats(-1e3, 1e3, allow_subnormal=False)
        V = np.array(data.draw(st.lists(vals, min_size=n * q, max_size=n * q))).reshape(n, q)
        W = np.array(data.draw(st.lists(vals, min_size=n * q, max_size=n * q))).reshape(q, n)
        f = fam.relu_field(V, W, np.zeros(q))
        want = np.linalg.norm(V, 2) * np.linalg.norm(W, 2)
        assert f.lipschitz_bound == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_nan_weights_rejected(self):
        with pytest.raises(ValueError):
            fam.relu_field(np.array([[np.nan, 1.0]]), np.ones((2, 1)), np.zeros(2))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_frozen_drive_flag_and_constant_velocity(self, data):
        # Each coordinate is driven, read, both or neither; entries of 0 and
        # -0.0 add zero patterns inside the kept rows and columns.
        n, q = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
        roles = data.draw(st.lists(st.sampled_from("drbn"), min_size=n, max_size=n))
        mats = st.lists(entries, min_size=n * q, max_size=n * q)
        V = np.array(data.draw(mats)).reshape(n, q) * [[r in "db"] for r in roles]
        W = np.array(data.draw(mats)).reshape(q, n) * [r in "rb" for r in roles]
        b = np.array(data.draw(st.lists(biases, min_size=q, max_size=q)))
        f = fam.relu_field(V, W, b)
        driven, read = np.any(V != 0.0, axis=1), np.any(W != 0.0, axis=0)
        assert f.frozen_drive == (not np.any(driven & read))
        # A single-pair drive, one driven row i and one other read column j,
        # records (i, j, g) with g the velocity's scalar terms.
        rows, cols = np.flatnonzero(driven), np.flatnonzero(read)
        pair = len(rows) == 1 and len(cols) == 1 and rows[0] != cols[0]
        assert (f.drive is not None) == pair
        if pair:
            i, j, g = f.drive
            assert (i, j) == (rows[0], cols[0])
            np.testing.assert_array_equal(g.terms, np.column_stack([V[i], W[:, j], b]))
        if f.frozen_drive:
            z = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
            s = data.draw(st.floats(0.0, 10.0))
            np.testing.assert_array_equal(f.eval(z + s * f.eval(z)), f.eval(z))
            if pair:
                np.testing.assert_allclose(f.exact_flow(z, s), z + s * f.eval(z),
                                           rtol=1e-12, atol=1e-9)


class TestSigmoidThreshold:
    def test_soft_threshold_values(self):
        assert fam.sigmoid_soft_threshold(0.5) == 0.0
        assert fam.sigmoid_soft_threshold(1.5) == 0.25
        assert fam.sigmoid_soft_threshold(3.0) == 0.5

    def test_smn_at_zero(self):
        for M, N in ((25, 5), (100, 10)):
            assert fam.sigmoid_smn(M, N, 0.0) <= 1.0 / (1.0 + math.exp(M / N))

    def test_smn_bound_on_grid(self):
        zs = np.linspace(-5, 5, 10_000)
        gap = np.max(np.abs(fam.sigmoid_soft_threshold(zs) - fam.sigmoid_smn(100, 10, zs)))
        assert gap < 0.1 + 1.0 / (1.0 + math.exp(10.0))

    def test_smn_converges_as_M_eq_N_squared(self):
        zs = np.linspace(-4, 4, 4001)
        s = fam.sigmoid_soft_threshold(zs)
        gaps = []
        for N in (4, 8, 16):
            M = N * N
            gap = float(np.max(np.abs(s - fam.sigmoid_smn(M, N, zs))))
            assert gap < 1.0 / N + 1.0 / (1.0 + math.exp(N))
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            fam.sigmoid_smn(0, 5, 0.0)


class TestWellCertification:
    @pytest.mark.parametrize("well,tol", [
        (fam.relu_well_1d(-1.0, 1.0), 1e-12),
        (fam.relu_well_nd(2), 1e-12),
        (fam.soft_threshold_well_1d(), 1e-12),
    ])
    def test_exact_wells(self, well, tol):
        assert_well_contract(well, tol, samples=20_000)


class TestApplyRestriction:
    def test_identity_restriction(self):
        w = fam.relu_well_1d(0.0, 1.0)
        r = AffineRestriction(np.ones(1), np.eye(1), np.zeros(1))
        g = apply_restriction(w.field, r)
        xs = np.linspace(-2, 3, 40)[:, None]
        np.testing.assert_allclose(g.eval(xs), w.field.eval(xs), rtol=1e-14)

    def test_translate_and_flip_1d_well(self):
        w = fam.relu_well_1d(0.0, 1.0)
        beta = 0.7
        r = AffineRestriction(-np.ones(1), np.eye(1), np.array([beta]))
        g = apply_restriction(w.field, r)
        # g(x) = -h(x + beta): zero set translated by -beta, sign flipped.
        inside = np.linspace(-beta, 1.0 - beta, 50)[:, None]
        np.testing.assert_array_equal(g.eval(inside), np.zeros_like(inside))
        assert g.eval(np.array([1.5 - beta]))[0] < 0

    def test_frozen_drive_nd(self):
        w = fam.relu_well_nd(3)
        D = np.array([1.0, 0.0, 0.0])
        A = np.zeros((3, 3))
        A[2, 2] = 0.5
        b = np.array([0.0, 0.0, 1.8])
        g = apply_restriction(w.field, AffineRestriction(D, A, b))
        z = np.array([0.4, -0.2, 1.0])  # slot = 0.5*1.0 + 1.8 = 2.3 outside
        vel = g.eval(z)
        assert vel[1] == 0.0 and vel[2] == 0.0
        assert vel[0] == pytest.approx((2.3 - 1.0) / 6.0)
        # frozen argument: exact flow is linear motion of coordinate 0 only
        out = g.exact_flow(z, 2.0)
        assert out[0] == pytest.approx(z[0] + 2.0 * vel[0])
        assert out[1] == z[1] and out[2] == z[2]

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            AffineRestriction(np.array([2.0]), np.eye(1), np.zeros(1))
        with pytest.raises(ValueError):
            AffineRestriction(np.ones(2), np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
        with pytest.raises(ValueError):
            AffineRestriction(np.ones(1), np.array([[1.5]]), np.zeros(1))
        with pytest.raises(ValueError, match="D entries"):
            AffineRestriction(np.array([1.0, np.nan]), np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match="diagonal"):
            AffineRestriction(np.ones(2), np.array([[1.0, np.nan], [0.0, 1.0]]), np.zeros(2))
        with pytest.raises(ValueError, match="entries"):
            AffineRestriction(np.ones(2), np.diag([1.0, np.nan]), np.zeros(2))

    @given(st.floats(-0.9, 0.9), st.floats(-1.0, 1.0), st.floats(-0.9, 0.9),
           st.floats(-1.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_composition_matches_algebra(self, a1, b1, a2, b2):
        w = fam.relu_well_1d(-0.4, 0.6)
        r1 = AffineRestriction(np.ones(1), np.array([[a1]]), np.array([b1]))
        r2 = AffineRestriction(-np.ones(1), np.array([[a2]]), np.array([b2]))
        g1 = apply_restriction(apply_restriction(w.field, r1), r2)
        # r2 applied to D1 f(A1 z + b1) is D2 D1 f(A1 A2 z + A1 b2 + b1).
        r12 = AffineRestriction(r1.D * r2.D, r1.A @ r2.A, r1.A @ r2.b + r1.b)
        g2 = apply_restriction(w.field, r12)
        xs = np.linspace(-3, 3, 41)[:, None]
        np.testing.assert_allclose(g1.eval(xs), g2.eval(xs), atol=1e-12)

    @given(term_lists, st.sampled_from([-1.0, 0.0, 1.0]), entries, st.floats(-1.0, 1.0),
           st.floats(-2.0, 2.0), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_relu_restriction_1d_matches_algebra_and_rk45(self, terms, d, a, beta, x, tau):
        f = fam.field_from_terms_1d(terms)
        r = AffineRestriction(np.array([d]), np.array([[a]]), np.array([beta]))
        self._check_restricted(f, r, np.array([x]), tau)

    @given(st.integers(0, 1), st.integers(0, 1), st.sampled_from([-1.0, 1.0]), entries,
           st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
           st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_relu_restriction_nd_matches_algebra_and_rk45(self, i, j, s, a, b0, x0, x1, tau):
        # One driven coordinate read from itself (i == j) or from a frozen one.
        D = np.zeros(2)
        D[i] = s
        A = np.zeros((2, 2))
        A[j, j] = a
        r = AffineRestriction(D, A, np.array([b0, -b0]))
        self._check_restricted(fam.relu_well_nd(2).field, r, np.array([x0, x1]), tau)

    @staticmethod
    def _check_restricted(f, r, z, tau):
        g = apply_restriction(f, r)
        zs = z + np.linspace(-1.0, 1.0, 9)[:, None]
        np.testing.assert_allclose(g.eval(zs), r.D * f.eval(zs @ r.A.T + r.b),
                                   rtol=1e-12, atol=1e-12)
        assert g.exact_flow is not None
        exact = g.exact_flow(z, tau)
        oracle = flow_eval(Schedule(((g, tau),), f.dim), z, RK12)
        np.testing.assert_allclose(exact, oracle, rtol=5e-9, atol=5e-9)

    def test_non_relu_fields_rejected_by_name(self):
        # Only ReLU fields recompose under restriction; every route to it
        # names the field it refuses.
        smooth = fam.generic_field(lambda z: fam.sigmoid(z) - 0.5, 1, 0.25, "smooth_wall")
        well = fam.WellFunction(dim=1, field=smooth, zero_box=np.array([[-1.0, 1.0]]),
                                outside_sign=fam.OutsideSign(+1, +1), label="smooth")
        r = AffineRestriction(np.ones(1), np.eye(1), np.array([0.5]))
        for route in (lambda: apply_restriction(smooth, r), lambda: fam.negated_field(smooth),
                      lambda: well.translated(0.5)):
            with pytest.raises(ValueError, match="needs a ReLU field; 'smooth_wall'"):
                route()

    def test_lipschitz_update(self):
        w = fam.relu_well_nd(2)
        r = AffineRestriction(np.array([1.0, 0.0]), 0.5 * np.eye(2), np.zeros(2))
        g = apply_restriction(w.field, r)
        assert g.lipschitz_bound <= w.field.lipschitz_bound * 0.5 + 1e-12


class TestWellTransforms:
    def test_translated_zero_box(self):
        w = fam.relu_well_1d(0.0, 1.0).translated(2.5)
        assert (w.q1, w.q2) == (2.5, 3.5)
        assert_well_contract(w)

    def test_fixed_kink_flag(self):
        # Every kink of these flows is an exact equilibrium, so flow_eval
        # composes runs of them as one increasing piecewise-linear map.
        from flowmap.highd import ShrinkSpec, build_contraction
        from flowmap.rates import compile_heaviside_flow, tv_log_derivative
        from flowmap.targets import builtin_target_1d

        w = fam.relu_well_1d(-0.3, 0.45)
        walls = [w.field, w.translated(0.7).field, fam.negated_field(w.translated(-1.3).field),
                 fam.negated_field(w.field)]
        heaviside = compile_heaviside_flow(tv_log_derivative(builtin_target_1d("pwl4")),
                                           anchor=0.0)
        contraction = build_contraction(ShrinkSpec(alpha=0.6, N=3, eps1=1e-3),
                                        fam.relu_well_nd(2), n=2)
        fields = (walls + [f for f, _ in heaviside.steps]
                  + [f for f, _ in contraction.steps])
        assert len(heaviside) and len(contraction)
        assert all(f.pwl.fixes_kinks for f in fields)
        assert not fam.soft_threshold_well_1d().field.pwl.fixes_kinks

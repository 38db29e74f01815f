"""Flow evaluation, exact closed forms, Jacobian checks, serialization."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowmap.core import (BlowupError, IntegratorConfig, Schedule,
                          StepBudgetError, VectorField, flow_eval, jacobian_sign_check,
                          schedule_from_json, schedule_to_json)
from flowmap.families import (AffineRestriction, apply_restriction,
                              field_from_terms_1d, generic_field, negated_field,
                              relu_field, relu_well_1d, soft_threshold_well_1d)
from flowmap.tensor import _doubling_schedule, shear_schedule, tensor_field
from helpers import RK12, biases, term_lists


def stepwise(sched, x):
    """The schedule's flow with every point stepped through every step's exact flow."""
    z = np.asarray(x, dtype=float).copy()
    for f, tau in sched.steps:
        if tau > 0.0:
            z = f.exact_flow(z, tau)
    return z


def well_pair():
    """A translated relu well and its negation, with the kinks both fields share."""
    well = relu_well_1d(-0.7, 0.3).translated(0.1)
    return well.field, negated_field(well.field), np.array([well.q1, well.q2])


@st.composite
def kink_fixing_steps(draw):
    """One or two steps whose flows fix every kink: a translated (and maybe
    negated) relu well, a single-term stage with |w| = 1, or the doubling pair."""
    kind = draw(st.sampled_from(["well", "stage", "double"]))
    if kind == "double":
        return list(_doubling_schedule().steps)
    tau = draw(st.sampled_from([0.0, 0.125, 0.5, 1.0]) | st.floats(0.0, 1.0))
    if kind == "well":
        q1 = draw(biases)
        width = draw(st.integers(1, 32)) / 16.0
        field = relu_well_1d(q1, q1 + width).translated(draw(biases)).field
        return [(negated_field(field) if draw(st.booleans()) else field, tau)]
    sign, w = draw(st.sampled_from([1.0, -1.0])), draw(st.sampled_from([1.0, -1.0]))
    return [(field_from_terms_1d([(sign, w, draw(biases))]), tau)]


@st.composite
def kink_fixing_runs(draw):
    """A 1D schedule of such steps, sometimes broken by a soft-threshold-well step."""
    steps = [s for chunk in draw(st.lists(kink_fixing_steps(), min_size=1, max_size=6))
             for s in chunk]
    if draw(st.booleans()):
        soft = soft_threshold_well_1d().field
        soft = negated_field(soft) if draw(st.booleans()) else soft
        steps.insert(draw(st.integers(0, len(steps))), (soft, draw(st.floats(0.1, 1.0))))
    return Schedule(tuple(steps), 1)


def relu_flow(v, w, b, x, tau):
    """Exact flow of dz/dt = v relu(w z + b) from x, through the field's own kernel."""
    return float(field_from_terms_1d([(v, w, b)]).exact_flow(np.array([x]), tau)[0])


class TestFlowEval:
    def test_empty_schedule_is_identity(self):
        x = np.array([0.3, -1.2])
        out = flow_eval(Schedule((), 2), x)
        np.testing.assert_array_equal(out, x)

    def test_single_relu_drive_closed_form(self):
        # dz = -relu(z - 0), from 2 over ln 2 lands on 1: (x2-x0) e^{-T} + x0.
        f = field_from_terms_1d([(-1.0, 1.0, 0.0)])
        out = flow_eval(Schedule(((f, math.log(2.0)),), 1), np.array([2.0]))
        assert abs(out[0] - 1.0) <= 1e-8

    def test_two_step_semigroup(self):
        f = field_from_terms_1d([(0.4, 1.0, -0.3), (-0.6, -1.0, 0.2)])
        x = np.array([0.7])
        one = flow_eval(Schedule(((f, 1.3),), 1), x)
        two = flow_eval(Schedule(((f, 0.4), (f, 0.9)), 1), x)
        assert abs(one[0] - two[0]) <= 1e-9

    def test_methods_agree(self):
        f = field_from_terms_1d([(1.0, 1.0, 0.0)])
        sched = Schedule(((f, 1.0),), 1)
        exact = flow_eval(sched, np.array([1.0]))
        rk45 = flow_eval(sched, np.array([1.0]), RK12)
        assert abs(exact[0] - math.e) < 1e-12
        assert abs(rk45[0] - math.e) < 1e-9

    def test_batch_shape(self):
        f = field_from_terms_1d([(1.0, 1.0, 0.0)])
        sched = Schedule(((f, 0.5),), 1)
        out = flow_eval(sched, np.linspace(0, 1, 7)[:, None])
        assert out.shape == (7, 1)

    def test_blowup_guard(self):
        f = field_from_terms_1d([(1.0, 1.0, 0.0)])
        with pytest.raises(BlowupError, match="exceeded guard"):
            flow_eval(Schedule(((f, 40.0),), 1), np.array([1.0]))

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "non-finite"),
        (2e12, "exceeded guard"), (-2e12, "exceeded guard"), (1e12, None)])
    def test_blowup_guard_names_the_cause_mid_flow(self, bad, message):
        # The middle step puts `bad` into one entry of a batch; the guard
        # after that step must name why, and a state at the guard passes.
        def plant(z, tau):
            z = z.copy()
            z[2, 1] = bad
            return z

        shift = tensor_field(field_from_terms_1d([(0.5, 0.0, 1.0)]), 2)
        still = tensor_field(field_from_terms_1d([(0.0, 1.0, 0.0)]), 2)
        planted = VectorField(dim=2, eval=lambda z: np.zeros_like(z), lipschitz_bound=0.0,
                              exact_flow=plant)
        sched = Schedule(((shift, 0.5), (planted, 1.0), (still, 1.0)), 2)
        x = np.linspace(-1.0, 1.0, 10).reshape(5, 2)
        if message is None:
            assert flow_eval(sched, x)[2, 1] == bad
            return
        with pytest.raises(BlowupError, match=message):
            flow_eval(sched, x)

    def test_guard_sees_a_column_the_schedule_only_reads(self):
        # Column 0 is read, never moved, so no run table bounds it; the parent
        # caught it in a scan of the whole state after the run.
        drive = relu_field([[0, 0], [1, 0]], [[1, 0], [0, 0]], [0, 0])
        assert drive.drive is not None
        with pytest.raises(BlowupError, match="exceeded guard"):
            flow_eval(Schedule(((drive, 0.5),), 2), np.array([2e12, 0.0]))

    def test_entry_beyond_the_guard_is_checked_after_the_first_live_step(self):
        # Without a live step nothing is checked, and a first step that
        # brings the state back inside the guard passes.
        drive = relu_field([[0, 0], [1, 0]], [[1, 0], [0, 0]], [0, 0])
        x = np.array([[2e12, 0.0], [-3e12, 1.0]])
        for sched in (Schedule((), 2), Schedule(((drive, 0.0), (drive, 0.0)), 2)):
            out = flow_eval(sched, x)
            assert out is not x
            np.testing.assert_array_equal(out, x)
        shrink = field_from_terms_1d([(-1.0, 1.0, 0.0)])
        out = flow_eval(Schedule(((shrink, 1.0),), 1), np.array([2e12]))
        assert out[0] == pytest.approx(2e12 / math.e, rel=1e-15)

    def test_guard_sees_a_non_finite_drive_table(self):
        # g = relu(1e308 z0) - relu(1e308 z0) is inf - inf = nan at z0 = 10,
        # so the run's bound is nan and its partial state must be checked.
        drive = relu_field([[0, 0], [1, -1]], [[1e308, 0], [1e308, 0]], [0, 0])
        assert drive.drive is not None
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(BlowupError, match="non-finite"):
            flow_eval(Schedule(((drive, 1.0),), 2), np.array([[10.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("shape", [(2,), (5, 2), (3, 4, 2)])
    def test_result_is_a_c_contiguous_copy_of_the_input_shape(self, shape):
        drive = relu_field([[0, 0], [1, 0]], [[1, 0], [0, 0]], [0, -0.2])
        well = tensor_field(relu_well_1d(-0.7, 0.3).field, 2)
        shear = relu_field([[1.0], [0.5]], [[1.0, 0.0]], [0.2])  # a step of its own
        x = np.linspace(-1.0, 1.0, math.prod(shape)).reshape(shape)
        for steps in ((), ((drive, 0.5),), ((well, 0.7),), ((shear, 0.3),),
                      ((drive, 0.5), (shear, 0.3), (well, 0.7))):
            sched = Schedule(steps, 2)
            ref = flow_eval(sched, x)
            for inp in (x, np.asfortranarray(x), np.repeat(x, 2, axis=-1)[..., ::2]):
                out = flow_eval(sched, inp)
                assert out.shape == shape and out.flags.c_contiguous
                assert not np.shares_memory(out, inp)
                np.testing.assert_array_equal(out, ref)

    def test_step_budget(self):
        rough = generic_field(lambda z: np.sin(1000.0 * z), 1, 1000.0, "stiff")
        cfg = IntegratorConfig(method="rk45_adaptive", tol=1e-10, max_steps=10)
        with pytest.raises(StepBudgetError):
            flow_eval(Schedule(((rough, 5.0),), 1), np.array([0.3]), cfg)

    def test_nonfinite_input_rejected(self):
        f = field_from_terms_1d([(1.0, 1.0, 0.0)])
        with pytest.raises(ValueError):
            flow_eval(Schedule(((f, 1.0),), 1), np.array([np.nan]))


class TestCompiledRuns:
    """Runs of kink-fixing steps are evaluated as one compiled increasing map."""

    @given(kink_fixing_runs(), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_matches_stepwise_and_rk45(self, sched, xs):
        x = np.array(xs)[:, None]
        out = flow_eval(sched, x)
        steps = stepwise(sched, x)
        assert np.all(np.abs(out - steps) <= 1e-12 * np.maximum(1.0, np.abs(steps)))
        rk = flow_eval(sched, x, RK12)
        assert np.all(np.abs(out - rk) <= 5e-9 * np.maximum(1.0, np.abs(rk)))

    @pytest.mark.parametrize("dim", [1, 3])
    def test_empty_and_one_point_batches(self, dim):
        up, down, _ = well_pair()
        steps = ((up, 0.7), (down, 0.3), (up, 1.1))
        sched = Schedule(tuple((tensor_field(f, dim) if dim > 1 else f, t) for f, t in steps), dim)
        empty = flow_eval(sched, np.empty((0, dim)))
        assert empty.shape == (0, dim)
        for x in (np.array([2.0, -1.5, 0.1][:dim]), np.array([[2.0, -1.5, 0.1][:dim]])):
            np.testing.assert_array_equal(flow_eval(sched, x), stepwise(sched, x))

    def test_points_on_kinks_are_unchanged(self):
        up, down, kinks = well_pair()
        sched = Schedule(((up, 0.7), (down, 0.3), (up, 1.1)), 1)
        # Pulled back through the hull's identity map by interpolation, these
        # kinks would move by an ulp: (k - lo) + lo != k.
        x = np.concatenate([kinks, [-2.0, 0.0, 3.0]])[:, None]
        out = flow_eval(sched, x)
        np.testing.assert_array_equal(out[:2, 0], kinks)
        np.testing.assert_allclose(out, stepwise(sched, x), rtol=1e-14)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_hull_endpoints_are_stepwise_images(self, dim):
        up, down, _ = well_pair()
        fields = [up, field_from_terms_1d([(1.0, -1.0, 0.25)]), down,
                  *(f for f, _ in _doubling_schedule().steps)]
        sched = Schedule(tuple((tensor_field(f, dim) if dim > 1 else f, 0.4) for f in fields), dim)
        x = np.random.default_rng(5).uniform(-3.0, 3.0, (40, dim))
        out, ref = flow_eval(sched, x), stepwise(sched, x)
        for k in range(dim):
            ends = [np.argmin(x[:, k]), np.argmax(x[:, k])]
            np.testing.assert_array_equal(out[ends, k], ref[ends, k])
        np.testing.assert_allclose(out, ref, rtol=1e-13)

    def test_guard_sees_every_step_of_a_run(self):
        # The first step carries 1 past the guard and the second brings it
        # back; only a check after each step sees it.
        grow = field_from_terms_1d([(1.0, 1.0, 0.0)])
        shrink = field_from_terms_1d([(-1.0, 1.0, 0.0)])
        sched = Schedule(((grow, 30.0), (shrink, 30.0)), 1)
        assert sched.steps[0][0].pwl.fixes_kinks and sched.steps[1][0].pwl.fixes_kinks
        with pytest.raises(BlowupError, match="exceeded guard"):
            flow_eval(sched, np.array([[0.5], [1.0]]))


def pair_drive(n, i, j, terms):
    """ReLU field driving coordinate i at velocity sum_k v_k relu(w_k z_j + b_k)."""
    terms = np.atleast_2d(np.asarray(terms, dtype=float))
    V = np.zeros((n, len(terms)))
    V[i] = terms[:, 0]
    W = np.zeros((len(terms), n))
    W[:, j] = terms[:, 1]
    return relu_field(V, W, terms[:, 2])


@st.composite
def frozen_drive_runs(draw):
    """An n-dim schedule (n = 2..4) of single-pair frozen drives on random
    (driven, read) pairs, some of zero duration, interleaved with kink-fixing
    tensor steps.  Consecutive drives share a pair, add a pair, or break the
    run by reading a driven coordinate."""
    n = draw(st.integers(2, 4))
    steps = []
    for _ in range(draw(st.integers(1, 10))):
        if draw(st.integers(0, 3)) == 0:
            steps += [(tensor_field(f, n), t) for f, t in draw(kink_fixing_steps())]
            continue
        i, j = draw(st.permutations(range(n)))[:2]
        tau = draw(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1.0))
        steps.append((pair_drive(n, i, j, draw(term_lists)), tau))
    return Schedule(tuple(steps), n)


class TestFrozenDriveRuns:
    """Runs of commuting single-pair frozen drives add one PWL increment per pair."""

    @given(frozen_drive_runs(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_stepwise_and_rk45(self, sched, data):
        m = data.draw(st.integers(1, 12))
        flat = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=m * sched.dim,
                                  max_size=m * sched.dim))
        x = np.array(flat).reshape(m, sched.dim)
        out = flow_eval(sched, x)
        steps = stepwise(sched, x)
        assert np.all(np.abs(out - steps) <= 1e-12 * np.maximum(1.0, np.abs(steps)))
        rk = flow_eval(sched, x, RK12)
        assert np.all(np.abs(out - rk) <= 5e-9 * np.maximum(1.0, np.abs(rk)))

    def test_run_breaks_where_a_step_reads_a_driven_coordinate(self):
        # z0 and z2 += g(z1) form one run; z1 += g(z0) reads the new z0 and
        # makes a second; z0 += g(z1) reads the new z1 and starts a third,
        # which z0 += g(z2) joins.  One increment over the input would miss
        # every read of an updated coordinate.
        g = [(1.0, 1.0, 0.0), (-0.5, -1.0, 0.25)]
        sched = Schedule(((pair_drive(3, 0, 1, g), 0.5), (pair_drive(3, 2, 1, g), 0.3),
                          (pair_drive(3, 1, 0, g), 0.7), (pair_drive(3, 0, 1, g), 0.4),
                          (pair_drive(3, 0, 2, g), 0.2)), 3)
        x = np.random.default_rng(3).uniform(-2.0, 2.0, (50, 3))
        np.testing.assert_allclose(flow_eval(sched, x), stepwise(sched, x), rtol=1e-13,
                                   atol=1e-13)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_empty_and_one_point_batches(self, dim):
        g = [(1.0, 1.0, -0.5), (-2.0, 1.0, 0.5)]
        sched = Schedule(((pair_drive(dim, 0, 1, g), 0.7), (pair_drive(dim, 0, 1, g), 0.0),
                          (pair_drive(dim, dim - 1, 1, g), 1.1)), dim)
        empty = flow_eval(sched, np.empty((0, dim)))
        assert empty.shape == (0, dim)
        for x in (np.array([2.0, -0.25, 0.1][:dim]), np.array([[2.0, -0.25, 0.1][:dim]])):
            out = flow_eval(sched, x)
            assert out.shape == x.shape
            np.testing.assert_allclose(out, stepwise(sched, x), rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("down", [(0, 1), (0, 2)], ids=["same_pair", "second_pair"])
    def test_guard_sees_every_step_of_a_run(self, down):
        # The first step carries z0 past the guard and the second brings it
        # back; only a check of the partial state after each step sees it.
        up = pair_drive(3, 0, 1, [(1.0, 1.0, 0.0)])
        back = pair_drive(3, *down, [(-1.0, 1.0, 0.0)])
        sched = Schedule(((up, 2e12), (back, 2e12)), 3)
        x = np.array([[0.0, 1.0, 1.0], [0.5, 0.5, 0.5]])
        assert np.max(np.abs(stepwise(sched, x))) <= 1.0
        with pytest.raises(BlowupError, match="exceeded guard"):
            flow_eval(sched, x)

    def test_guard_bound_crossing_alone_does_not_raise(self):
        # Pair (0, 1) adds 0.9e12 twice and pair (0, 2) takes 0.9e12 away in
        # between: the peaks sum to 2.7e12, but no partial state passes 0.9e12.
        step = [(0.9e12, 1.0, 0.0)]
        sched = Schedule(((pair_drive(3, 0, 1, step), 1.0),
                          (pair_drive(3, 0, 2, [(-0.9e12, 1.0, 0.0)]), 1.0),
                          (pair_drive(3, 0, 1, step), 1.0)), 3)
        out = flow_eval(sched, np.array([[0.0, 1.0, 1.0]]))
        assert out[0, 0] == pytest.approx(0.9e12, rel=1e-15)


class TestExactReluFlow:
    def test_drive_to_target(self):
        assert relu_flow(-1.0, 1.0, 0.0, 2.0, math.log(2.0)) == pytest.approx(1.0, abs=1e-14)

    def test_inactive_side_is_fixed(self):
        assert relu_flow(3.7, 1.0, -5.0, 1.0, 7.0) == 1.0

    def test_growth_matches_rk45(self):
        val = relu_flow(1.0, 1.0, 0.0, 1.0, 1.0)
        f = field_from_terms_1d([(1.0, 1.0, 0.0)])
        oracle = flow_eval(Schedule(((f, 1.0),), 1), np.array([1.0]), RK12)[0]
        assert val == pytest.approx(math.e, abs=1e-12)
        assert val == pytest.approx(oracle, abs=1e-9)

    def test_w_zero_constant_drift(self):
        assert relu_flow(2.0, 0.0, 3.0, 1.0, 0.5) == pytest.approx(4.0)
        assert relu_flow(2.0, 0.0, -3.0, 1.0, 0.5) == 1.0


class TestJacobianSign:
    def test_identity_map(self):
        recs = jacobian_sign_check(Schedule((), 2), [[0.2, 0.4], [0.9, 0.1]])
        for rec in recs:
            assert rec.det == pytest.approx(1.0, abs=1e-8)
            assert rec.positive is True

    def test_rotation_flow(self):
        rot = generic_field(lambda z: np.stack([-z[..., 1], z[..., 0]], axis=-1),
                            2, 1.0, "rot")
        sched = Schedule(((rot, np.pi / 2),), 2)
        corners = [[0, 0], [0, 1], [1, 0], [1, 1]]
        for rec in jacobian_sign_check(sched, corners):
            assert rec.det == pytest.approx(1.0, abs=1e-5)
            assert rec.positive is True
        # analytic quarter turn
        out = flow_eval(sched, np.array([1.0, 0.0]), RK12)
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-9)

    def test_near_singular_is_indeterminate(self):
        # A strong contraction toward a fixed interval flattens the map.
        w = relu_well_1d(0.0, 1.0)
        f = negated_field(w.field)
        sched = Schedule(((f, 60.0),), 1)
        recs = jacobian_sign_check(sched, [[3.0]], h=1e-6)
        assert recs[0].positive is None

    def test_matched_schedule_positive_on_grid(self):
        from flowmap.oned import PointMatchProblem, match_points_result

        well = relu_well_1d(-1.0, 0.0)
        sched = match_points_result(PointMatchProblem(
            np.array([0.5, 1.5, 2.5]), np.array([0.7, 1.1, 4.0]), well, 1e-6)).schedule
        grid = np.linspace(0.0, 3.0, 16)[:, None]
        recs = jacobian_sign_check(sched, grid, h=1e-6)
        assert all(r.positive for r in recs)
        # oracle: sign of divided differences on a fine grid
        fine = np.linspace(0.0, 3.0, 2001)[:, None]
        out = flow_eval(sched, fine)[:, 0]
        assert np.all(np.diff(out) > 0)


class TestInvariants:
    @given(st.floats(0.05, 1.5), st.floats(0.05, 1.5), st.floats(-1.5, 1.5))
    @settings(max_examples=40, deadline=None)
    def test_semigroup_property(self, s, t, x):
        f = field_from_terms_1d([(0.5, 1.0, -0.2), (-0.4, -1.0, -0.1)])
        split = flow_eval(Schedule(((f, s), (f, t)), 1), np.array([x]))
        joint = flow_eval(Schedule(((f, s + t),), 1), np.array([x]))
        assert abs(split[0] - joint[0]) <= 10 * 1e-10 * max(1.0, abs(joint[0]))

    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_1d_flows_are_increasing(self, a, b):
        x1, x2 = min(a, b), max(a, b)
        if x2 - x1 < 1e-6:
            return
        f = field_from_terms_1d([(0.7, 1.0, 0.1), (-0.5, -1.0, 0.3)])
        sched = Schedule(((f, 0.7), (negated_field(f), 0.2)), 1)
        out = flow_eval(sched, np.array([[x1], [x2]]))
        assert out[0, 0] < out[1, 0]

    def test_gronwall_stability(self):
        # |f - g| <= eps2 on the reached set gives gap <= t eps2 e^{t Lip}.
        rng = np.random.default_rng(3)
        for _ in range(5):
            a, c = rng.uniform(-0.8, 0.8), rng.uniform(-0.5, 0.5)
            eps2 = 10 ** rng.uniform(-6, -3)
            f = field_from_terms_1d([(a, 1.0, 0.0), (-a, -1.0, 0.0), (c, 0.0, 1.0)])
            g = field_from_terms_1d([(a, 1.0, 0.0), (-a, -1.0, 0.0), (c + eps2, 0.0, 1.0)])
            t = 1.0
            x = np.array([rng.uniform(-1, 1)])
            gap = abs(flow_eval(Schedule(((f, t),), 1), x)[0]
                      - flow_eval(Schedule(((g, t),), 1), x)[0])
            assert gap <= t * eps2 * math.exp(t * abs(a)) * (1 + 1e-9)

    @given(term_lists, st.floats(0.0, 1.0), st.floats(-2.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_negated_flow_is_exact_inverse(self, terms, tau, x):
        f = field_from_terms_1d(terms)
        there = flow_eval(Schedule(((f, tau),), 1), np.array([x]))
        back = flow_eval(Schedule(((negated_field(f), tau),), 1), there)
        # Roundoff near an equilibrium grows by at most exp(Lip * tau) on the way back.
        tol = 1e-12 * (1.0 + abs(x) + abs(there[0])) * math.exp(f.lipschitz_bound * tau)
        assert abs(back[0] - x) <= tol

    def test_uniform_time_modulus(self):
        # sup_x |z(t1; x) - z(t2; x)| <= M |t1 - t2| with M = max |f| reached.
        f = field_from_terms_1d([(0.5, 1.0, 0.0), (-0.5, -1.0, 0.0)])
        grid = np.linspace(-1.0, 1.0, 21)[:, None]
        t1, t2 = 0.35, 0.6
        z1 = flow_eval(Schedule(((f, t1),), 1), grid)
        z2 = flow_eval(Schedule(((f, t2),), 1), grid)
        reached = np.concatenate([grid, z1, z2])
        M = float(np.max(np.abs(f.eval(reached))))
        assert float(np.max(np.abs(z1 - z2))) <= M * (t2 - t1) * (1 + 1e-9)


class TestLipschitzSpotCheck:
    def test_declared_bounds_hold_on_samples(self):
        from flowmap.families import relu_well_nd

        rng = np.random.default_rng(0)
        for f, box in ((relu_well_nd(2).field, [[-3, 3], [-3, 3]]),
                       (field_from_terms_1d([(0.7, 1.3, -0.2)]), [[-2, 2]])):
            box = np.asarray(box, dtype=float)
            x, y = rng.uniform(box[:, 0], box[:, 1], size=(2, 2000, f.dim))
            num = np.linalg.norm(f.eval(x) - f.eval(y), axis=-1)
            assert np.all(num <= f.lipschitz_bound * np.linalg.norm(x - y, axis=-1) + 1e-9)


def assert_round_trip_bit_faithful(sched):
    doc = json.loads(json.dumps(schedule_to_json(sched)))
    back = schedule_from_json(doc)
    xs = np.linspace(-2, 2, 33 * sched.dim).reshape(-1, sched.dim)
    for (f1, t1), (f2, t2) in zip(sched.steps, back.steps):
        assert t1 == t2
        assert f1.params == f2.params
        np.testing.assert_array_equal(f1.exact_flow(xs, t1), f2.exact_flow(xs, t2))
    np.testing.assert_array_equal(flow_eval(sched, xs), flow_eval(back, xs))


class TestScheduleSerialization:
    def test_round_trip_bit_faithful(self):
        w = relu_well_1d(-1.0, 0.37)
        assert_round_trip_bit_faithful(Schedule(((w.field, 0.123456789123456789),
                                                 (negated_field(w.field), math.pi)), 1))

    @given(term_lists, st.floats(-2.0, 2.0), st.floats(-1.0, 1.0), st.floats(0.05, 2.0),
           st.lists(st.floats(0.0, 0.5), min_size=5, max_size=5), st.sampled_from([1.0, -1.0]))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random_fields(self, terms, shift, q1, width, taus, sign):
        f = field_from_terms_1d(terms)
        well = relu_well_1d(q1, q1 + width).translated(shift)
        fields = (f, negated_field(f),
                  apply_restriction(f, AffineRestriction.translation(1, shift)),
                  well.field, negated_field(well.field))
        assert_round_trip_bit_faithful(Schedule(tuple(zip(fields, taus)), 1))
        # Tensor contraction steps and shear stages keep their exact flows on reload.
        tensor_steps = Schedule(((tensor_field(f, 2), taus[0]),
                                 (tensor_field(well.field, 2), taus[1])), 2)
        shear = shear_schedule(Schedule(((f, taus[2]),), 1), 0, 1, 2, sign)
        assert_round_trip_bit_faithful(tensor_steps.then(shear))

    def test_non_finite_tensor_inner_rejected(self):
        # The tensor builder rebuilds its inner field through relu_field.
        doc = schedule_to_json(Schedule(((tensor_field(field_from_terms_1d(
            [(1.0, 1.0, -0.5), (-1.0, 1.0, -0.75)]), 2), 0.5),), 2))
        doc["steps"][0]["params"]["inner"]["params"]["b"][1] = float("nan")
        with pytest.raises(ValueError, match=r"relu term 1 is not finite: v = \[-1.0\]"):
            schedule_from_json(json.loads(json.dumps(doc)))

    def test_unserializable_field_raises(self):
        f = generic_field(lambda z: z, 1, 1.0, "anon")
        with pytest.raises(ValueError):
            schedule_to_json(Schedule(((f, 1.0),), 1))


class TestValidation:
    def test_integrator_config(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="euler")
        with pytest.raises(ValueError):
            IntegratorConfig(tol=-1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(max_steps=0)

    def test_schedule_validation(self):
        f = field_from_terms_1d([(1.0, 1.0, 0.0)])
        with pytest.raises(ValueError):
            Schedule(((f, -1.0),), 1)
        with pytest.raises(ValueError):
            Schedule(((f, 1.0),), 2)

    @pytest.mark.parametrize("dim", ["1", True, 1.0, 0, -1, None])
    def test_schedule_dim_must_be_positive_int(self, dim):
        with pytest.raises(ValueError, match="schedule dim must be an integer >= 1"):
            Schedule((), dim)
        with pytest.raises(ValueError, match="schedule dim must be an integer >= 1"):
            schedule_from_json({"dim": dim, "steps": []})
        assert type(Schedule((), np.int64(2)).dim) is int

    @pytest.mark.parametrize("doc, match", [
        ([], "schedule document must be an object, got list"),
        ({"dim": 1, "steps": 1}, "schedule key 'steps' must be a list, got int"),
        ({"dim": 1, "steps": {"tau": 1.0}}, "schedule key 'steps' must be a list, got dict"),
        ({"dim": 1, "steps": [7]}, "field document must be an object, got int"),
        ({"dim": 1, "steps": [{"family_tag": "relu", "params": [1.0], "tau": 1.0}]},
         "field key 'params' must be an object, got list"),
        ({"dim": 1, "steps": [{"family_tag": ["relu"], "params": {}, "tau": 1.0}]},
         "field key 'family_tag' must be a string, got list"),
    ], ids=["doc_list", "steps_int", "steps_dict", "step_int", "params_list", "tag_list"])
    def test_schedule_document_layout(self, doc, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            schedule_from_json(doc)

    def test_total_time(self):
        f = field_from_terms_1d([(1.0, 1.0, 0.0)])
        sched = Schedule(((f, 0.25), (f, 0.5)), 1)
        assert sched.total_time == 0.75

"""1D transport, point matching, and uniform increasing approximation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowmap.core import IntegratorConfig, Schedule, flow_eval
from flowmap.families import (OutsideSign, WellFunction, generic_field, negated_field,
                              relu_well_1d, sigmoid_smn, sigmoid_soft_threshold,
                              soft_threshold_well_1d)
from flowmap.oned import (MAX_LEVEL_GAPS, MAX_PARTITION, NotIncreasingError, PointMatchProblem,
                          TransportError, approx_increasing, match_points_result,
                          transport_time)
from flowmap.targets import PwlData, builtin_target_1d
from flowmap.util import sup_probe_points
from helpers import RK12

WELL = relu_well_1d(-1.0, 0.0)


def _forbid_field_builds(monkeypatch):
    def no_field(*args, **kwargs):
        raise AssertionError("a field was built")

    # Every well translate, negation and ReLU field goes through these.
    monkeypatch.setattr("flowmap.families.apply_restriction", no_field)
    monkeypatch.setattr("flowmap.families.relu_field", no_field)


def _generic_well(fn, zero_set, label):
    """A scalar well over a plain callable of x: a zero set but no piece tables."""
    field = generic_field(lambda z: np.asarray(fn(np.asarray(z, dtype=float)[..., 0]))[..., None],
                          1, 1.0, label)
    return WellFunction(dim=1, field=field, zero_box=np.array([zero_set]),
                        outside_sign=OutsideSign(+1, +1), label=label)


class TestTransportTime:
    def test_relu_drive_time_is_log_ratio(self):
        # Well with upper edge x0 = 0; drive from 2 to 1 takes ln 2 at unit rate.
        well = relu_well_1d(-1.0, 0.0)
        sign, tau = transport_time(well, 2.0, 1.0)
        # field is relu(x)/2 above the interval, so the rate is 1/2.
        assert sign == -1
        assert tau == pytest.approx(2.0 * math.log(2.0), abs=1e-8)

    def test_same_point_zero_time(self):
        assert transport_time(WELL, 1.3, 1.3) == (1, 0.0)

    def test_unit_slope_drive_takes_ln2(self):
        # A well whose right wall is relu(x - x0) itself: from x0+2 to x0+1
        # the flow decays at unit rate, so tau = ln((x2-x0)/(x1-x0)) = ln 2.
        from flowmap.families import OutsideSign, WellFunction, field_from_terms_1d

        x0 = 0.37
        f = field_from_terms_1d([(1.0, 1.0, -x0), (1.0, -1.0, x0 - 1.0)])
        well = WellFunction(dim=1, field=f, zero_box=np.array([[x0 - 1.0, x0]]),
                            outside_sign=OutsideSign(+1, +1))
        sign, tau = transport_time(well, x0 + 2.0, x0 + 1.0)
        assert sign == -1
        assert tau == pytest.approx(math.log(2.0), abs=1e-9)

    def test_sigmoid_built_well_lands_within_tolerance(self):
        well = soft_threshold_well_1d()
        sign, tau = transport_time(well, 3.0, 2.0)
        fld = well.field if sign > 0 else negated_field(well.field)
        out = flow_eval(Schedule(((fld, tau),), 1), np.array([3.0]), RK12)
        assert abs(out[0] - 2.0) <= 1e-8

    def test_inside_interval_rejected(self):
        with pytest.raises(TransportError):
            transport_time(WELL, -0.5, 1.0)

    def test_opposite_sides_rejected(self):
        with pytest.raises(TransportError):
            transport_time(WELL, -2.0, 1.0)


class TestMatchPoints:
    def test_single_point_single_drive(self):
        res = match_points_result(PointMatchProblem(
            np.array([2.0]), np.array([5.0]), WELL, 1e-8))
        assert len(res.schedule) == 1
        assert res.achieved[0] == pytest.approx(5.0, abs=1e-8)

    def test_already_matched_is_near_identity(self):
        xs = np.array([0.5, 1.5, 2.5])
        res = match_points_result(PointMatchProblem(xs, xs, WELL, 1e-6))
        assert len(res.schedule) == 0
        np.testing.assert_array_equal(res.achieved, xs)

    def test_five_points(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        ys = np.array([1.5, 1.6, 3.0, 4.5, 9.0])
        sched = match_points_result(PointMatchProblem(xs, ys, WELL, 1e-6)).schedule
        out = flow_eval(sched, xs[:, None])[:, 0]
        assert float(np.max(np.abs(out - ys))) <= 1e-6

    def test_stage_preservation(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        ys = np.array([1.2, 2.5, 2.6, 7.0])
        p = PointMatchProblem(xs, ys, WELL, 1e-6)
        res = match_points_result(p)
        stage_tol = p.eps / (10 * p.m)
        for k, end in enumerate(res.stage_ends):
            part = Schedule(res.schedule.steps[:end], 1)
            vals = flow_eval(part, xs[: k + 1][:, None])[:, 0]
            # every point matched so far stays within its stage tolerance
            assert float(np.max(np.abs(vals - ys[: k + 1]))) <= stage_tol * (k + 2)

    def test_emitted_flow_is_increasing(self):
        xs = np.array([0.0, 1.0, 2.0])
        ys = np.array([0.3, 0.35, 5.0])
        sched = match_points_result(PointMatchProblem(xs, ys, WELL, 1e-6)).schedule
        grid = np.linspace(-1.0, 3.0, 512)[:, None]
        out = flow_eval(sched, grid)[:, 0]
        assert np.all(np.diff(out) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PointMatchProblem(np.array([1.0, 1.0]), np.array([0.0, 1.0]), WELL, 1e-6)
        with pytest.raises(ValueError):
            PointMatchProblem(np.array([0.0, 1.0]), np.array([1.0, 0.5]), WELL, 1e-6)
        with pytest.raises(ValueError):
            PointMatchProblem(np.array([0.0]), np.array([1.0]), WELL, -1.0)


class TestApproxIncreasing:
    def test_identity_gives_empty_schedule(self):
        res = approx_increasing(builtin_target_1d("identity"), 0.05, WELL)
        assert len(res.schedule) == 0

    def test_soft_threshold_well_rejected_up_front(self, monkeypatch):
        # The compiled map is built from its own ReLU stages, so a given well
        # must be a 1D ReLU well; the soft threshold has kinks that are not
        # equilibria: rejected, by name, before the partition search.
        def no_partition(*args, **kwargs):
            raise AssertionError("partition search started")

        monkeypatch.setattr("flowmap.oned._partition", no_partition)
        with pytest.raises(ValueError, match="soft_threshold is not one"):
            approx_increasing(builtin_target_1d("smooth1"), 5e-2, soft_threshold_well_1d())

    def test_block_wells_rejected_up_front(self, monkeypatch):
        # Residual-block-shaped wells s(a sigma(x) + b) have no piece tables,
        # hence no exact hitting times: point matching refuses them before
        # building any field.
        t = math.tanh(1.0)
        wells = (_generic_well(lambda x: sigmoid_soft_threshold(2.0 * np.maximum(x, 0.0) - 2.0),
                               (0.5, 1.5), "block_relu"),
                 _generic_well(lambda x: sigmoid_soft_threshold(np.tanh(x) / t), (-1.0, 1.0),
                               "block_tanh"))
        _forbid_field_builds(monkeypatch)
        for well in wells:
            with pytest.raises(ValueError, match=f"{well.label} has no piece tables"):
                match_points_result(PointMatchProblem(np.array([2.5, 3.5]),
                                                      np.array([2.8, 4.2]), well, 1e-5))

    def test_dead_zone_well_rejected_up_front(self, monkeypatch):
        # The smoothed staircase surrogate is flat for a while beyond its
        # zero box, so parked points would stall there; it has no piece
        # tables: rejected before the partition search or any field build.
        def no_partition(*args, **kwargs):
            raise AssertionError("partition search started")

        monkeypatch.setattr("flowmap.oned._partition", no_partition)
        _forbid_field_builds(monkeypatch)
        well = _generic_well(lambda x: sigmoid_smn(200, 14, x), (-1.0, 1.0), "smn")
        with pytest.raises(ValueError, match="smn has no piece tables"):
            approx_increasing(builtin_target_1d("smooth1"), 0.2, well)

    def test_smooth_target_meets_budget(self):
        target = builtin_target_1d("smooth1")
        res = approx_increasing(target, 1e-2, WELL)
        grid = np.linspace(0, 1, 4097)
        out = flow_eval(res.schedule, grid[:, None])[:, 0]
        err = float(np.max(np.abs(out - target.fn(grid))))
        assert err <= 1e-2
        assert err <= res.error_budget

    def test_decreasing_target_rejected(self):
        with pytest.raises(NotIncreasingError):
            approx_increasing(builtin_target_1d("dec1"), 1e-2, WELL)

    def test_flat_target_strictified(self):
        def plateau(x):
            x = np.asarray(x, dtype=float)
            return np.minimum(np.maximum(x - 0.25, 0.0), 0.5)

        res = approx_increasing(plateau, 0.1, WELL, domain=(0.0, 1.0))
        grid = np.linspace(0, 1, 1025)
        out = flow_eval(res.schedule, grid[:, None])[:, 0]
        assert float(np.max(np.abs(out - plateau(grid)))) <= 0.1

    def test_dip_between_probe_points_rejected(self):
        # A dip of depth 0.2 and half-width 3e-4 halfway between two points
        # of the 1024-cell probe grid (4.9e-4 from each) passes the probe.
        # At eps 1e-3 the first cell's samples lie at most 2.5e-4 apart, so
        # one of them falls inside the dip and sees the decrease.
        center = 307.5 / 1024

        def dip(x):
            x = np.asarray(x, dtype=float)
            return x - 0.2 * np.maximum(0.0, 1.0 - np.abs(x - center) / 3e-4)

        probe = np.linspace(0.0, 1.0, 1025)
        assert np.all(np.diff(dip(probe)) > 0)
        with pytest.raises(NotIncreasingError, match="partition cell"):
            approx_increasing(dip, 1e-3, domain=(0.0, 1.0))

    def test_partition_cap_named(self):
        # Interpolation error is about h^2 / 8 |phi''|: eps 1e-12 needs
        # far more than MAX_PARTITION cells on smooth1.
        with pytest.raises(ValueError, match=f"MAX_PARTITION = {MAX_PARTITION} cells at eps 1e-12"):
            approx_increasing(builtin_target_1d("smooth1"), 1e-12)

    @pytest.mark.parametrize("name", ["smooth1", "quad"])
    def test_level_gap_cap_named_when_it_binds(self, name):
        # At eps 1e-6 a level needs about 4 rise / eps gaps in all, far above
        # MAX_LEVEL_GAPS = 2^18: cells are bisected until the cell cap is hit,
        # but the sample cap is what binds.
        with pytest.raises(ValueError, match=rf"MAX_LEVEL_GAPS = {MAX_LEVEL_GAPS} capped its "
                                             r"last level at \d+ gaps per cell where \d+ "
                                             r"were needed"):
            approx_increasing(builtin_target_1d(name), 1e-6)

    def test_jump_named_when_its_cell_cannot_be_bisected(self):
        def step(x):
            x = np.asarray(x, dtype=float)
            return x + (x > 0.5)

        # Halving the cell (0.5, 1/2 + 2^-k] that holds the jump reaches one
        # ulp of 0.5 at the 53rd level, and stops there by name.
        with pytest.raises(ValueError, match=r"cell \[0\.5, 0\.5000000000000001\] cannot be "
                                             r"bisected at eps 0\.1; is the target continuous"):
            approx_increasing(step, 0.1, domain=(0.0, 1.0))

    def test_smooth_target_partition_is_adaptive(self):
        # Refining only the cells that need it: 12 steps here, where a
        # uniform partition refined by an empirical modulus took 1025.
        res = approx_increasing(builtin_target_1d("smooth1"), 5e-3)
        assert len(res.schedule) <= 40
        assert res.cells_certified + res.cells_sampled == len(res.nodes) - 1

    @pytest.mark.parametrize("name", ["smooth1", "quad", "identity", "pwl4", "mono_tv1"])
    def test_builtin_targets_at_eps_1e_4(self, name):
        target = builtin_target_1d(name)
        res = approx_increasing(target, 1e-4)
        probe = sup_probe_points(res.nodes, 0)
        out = flow_eval(res.schedule, probe[:, None])[:, 0]
        err = float(np.max(np.abs(out - target.fn(probe))))
        assert res.error_budget <= 0.5e-4
        assert err <= min(1e-4, res.error_budget)


@st.composite
def increasing_targets(draw):
    """(fn, domain, eps): a random increasing PWL target or a smooth one."""
    lo = draw(st.floats(-2.0, 1.0))
    hi = lo + draw(st.floats(0.5, 2.0))
    anchor = draw(st.floats(-3.0, 3.0))
    if draw(st.booleans()):
        pieces = draw(st.integers(1, 6))
        cuts = draw(st.lists(st.integers(1, 63), min_size=pieces - 1, max_size=pieces - 1,
                             unique=True))
        bp = lo + (hi - lo) * np.array([0, *sorted(cuts), 64]) / 64.0
        slopes = draw(st.lists(st.floats(0.2, 4.0), min_size=pieces, max_size=pieces))
        fn = PwlData(bp, np.array(slopes), anchor)
    else:
        a, c = draw(st.floats(0.1, 2.0)), draw(st.floats(0.0, 1.0))
        k, x0 = draw(st.floats(0.5, 4.0)), draw(st.floats(lo, hi))

        def fn(x):
            x = np.asarray(x, dtype=float)
            return anchor + a * x + c * np.tanh(k * (x - x0))
    return fn, (lo, hi), draw(st.sampled_from([0.05, 0.1, 0.2]))


class TestCompiledInterpolant:
    """approx_increasing compiles the node interpolant: exact at the nodes up
    to roundoff, and within each cell's bound of the target between them."""

    @staticmethod
    def _check(res, fn, eps, seed=0):
        probe = sup_probe_points(res.nodes, seed)
        out = flow_eval(res.schedule, probe[:, None])[:, 0]
        err = float(np.max(np.abs(out - np.asarray(fn(probe)))))
        assert err <= min(eps, res.error_budget)
        at_nodes = flow_eval(res.schedule, res.nodes[:, None])[:, 0]
        xs, ys = res.nodes, res.node_values
        # The translation gadget shifts by delta = phi(x0) - s0 x0 through a
        # kink 2 |delta| / slack away, slack = max(1e-3, |delta| / 1e6): its
        # roundoff is that of numbers of that size.
        delta = ys[0] - (ys[1] - ys[0]) / (xs[1] - xs[0]) * xs[0]
        tol = (1e-12 * np.maximum(1.0, np.abs(ys))
               + 4.0 * np.spacing(min(2e3 * abs(delta), 2e6)))
        assert np.all(np.abs(at_nodes - ys) <= tol)

    @given(increasing_targets(), st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_random_targets_meet_budget_and_match_rk45(self, case, seed):
        fn, domain, eps = case
        res = approx_increasing(fn, eps, domain=domain)
        self._check(res, fn, eps, seed)
        lo, hi = domain
        pts = np.array([lo, 0.3 * lo + 0.7 * hi])[:, None]
        exact = flow_eval(res.schedule, pts)[:, 0]
        rk45 = flow_eval(res.schedule, pts, IntegratorConfig(method="rk45_adaptive"))[:, 0]
        np.testing.assert_allclose(rk45, exact, rtol=0.0, atol=1e-8)

    def test_far_anchor_exercises_gadget_slack(self):
        # phi(nodes[0]) - nodes[0] is about 1e4, so the translation gadget's
        # slack grows past its default of 1e-3 to |delta| / 1e6.
        def fn(x):
            x = np.asarray(x, dtype=float)
            return 1e4 + x + x ** 3

        res = approx_increasing(fn, 1e-3, domain=(0.0, 1.0))
        self._check(res, fn, 1e-3)
        (contract, t1), (expand, t2) = res.schedule.steps[-2:]
        assert (contract.label, expand.label) == ("shift_contract", "shift_expand")
        assert t1 + t2 == pytest.approx(1e4 / 1e6, rel=1e-6)

    def test_pwl_target_compiles_to_a_handful_of_steps(self):
        # Its own breakpoints, with no partition: one scaling pair and one
        # stage per change of slope (identity: none at all).
        for name, steps in (("identity", 0), ("pwl4", 5)):
            target = builtin_target_1d(name)
            for eps in (1e-3, 1e-4):
                res = approx_increasing(target, eps)
                assert len(res.schedule) == steps
                np.testing.assert_array_equal(res.nodes, target.pwl.breakpoints)
                assert res.cells_certified == res.cells_sampled == 0
                probe = sup_probe_points(res.nodes, 0)
                out = flow_eval(res.schedule, probe[:, None])[:, 0]
                assert float(np.max(np.abs(out - target.fn(probe)))) <= 1e-12

    def test_kinks_between_samples_stay_within_budget(self):
        # Two kinks inside the first sample gap of a rule that samples 11
        # points per cell: all 11 lie on the chord 2x, yet the target is
        # 1/64 below it at x = 1/64.  A bound read from the deviation at the
        # samples alone would be 0 here.
        fn = PwlData(np.array([0.0, 1 / 64, 1 / 32, 1.0]), np.array([1.0, 3.0, 2.0]), 0.0)
        res = approx_increasing(fn, 0.05, domain=(0.0, 1.0))
        self._check(res, fn, 0.05)

    @pytest.mark.parametrize("fn,eps,domain", [
        # A domain end more than 1 past the last interior breakpoint: the
        # translation gadget once missed node 10 by 7.5e-4.
        (lambda x: x - 3 + 1e-4 * np.asarray(x, dtype=float) ** 2, 6.0, (0.0, 10.0)),
        # A one-cell partition on (0, 2), its end node past the old reach.
        (lambda x: 2.0 * np.asarray(x, dtype=float) - 1.0, 0.05, (0.0, 2.0)),
    ])
    def test_gadget_covers_the_domain(self, fn, eps, domain):
        res = approx_increasing(fn, eps, domain=domain)
        assert res.nodes[-1] == domain[1]
        self._check(res, fn, eps)

    def test_flat_piece_nudged_by_at_least_one_ulp(self):
        # At 1e6 one ulp is about 1.2e-10, above the nudge of eps * 1e-8 =
        # 1e-11: prev + tiny rounds back to prev, so equal node values stay
        # equal unless the nudge takes the next float up.
        def plateau(x):
            return 1e6 + np.clip(np.asarray(x, dtype=float) - 0.25, 0.0, 0.5)

        res = approx_increasing(plateau, 1e-3, domain=(0.0, 1.0))
        assert np.all(np.diff(res.node_values) > 0)
        self._check(res, plateau, 1e-3)

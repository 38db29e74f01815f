"""Total variation of the log-derivative, exact compilation, budgeted error."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flowmap import rates
from flowmap.core import flow_eval
from flowmap.pwl import PwlField
from flowmap.rates import (LogDerivativeProfile, budgeted_schedule,
                           compile_heaviside_flow, compile_pwl_map, gamma_relaxed,
                           rate_sweep, translation_gadget, tv_log_derivative)
from flowmap.targets import PwlData, Target1D, builtin_target_1d


def pwl_target(breaks, slopes, anchor=0.0):
    data = PwlData(np.asarray(breaks, float), np.asarray(slopes, float), anchor)
    return Target1D(fn=data, domain=(0.0, 1.0), name="pwl", pwl=data)


def pwc_profile(breakpoints, values):
    return LogDerivativeProfile("pwc", np.asarray(breakpoints, float), np.asarray(values, float))


def extended_jumps(values):
    """Jumps of u extended by zero outside [0, 1]: u[0], the interior
    differences, then -u[-1]."""
    u = [0.0, *values, 0.0]
    return [b - a for a, b in zip(u[:-1], u[1:])]


@st.composite
def log_slope_lists(draw):
    """1-20 log-slopes, with zeros and repeated adjacent values."""
    u = draw(st.lists(st.sampled_from([0.0, -0.5, 1.25]) | st.floats(-3.0, 3.0),
                      min_size=1, max_size=20))
    for j in range(1, len(u)):
        if draw(st.booleans()):
            u[j] = u[j - 1]
    return u


@st.composite
def random_pwl_targets(draw):
    """Increasing PWL targets on [0, 1] whose ln(phi') has zero-height jumps:
    repeated adjacent slopes and, sometimes, slope 1 at either end."""
    pieces = draw(st.integers(1, 12))
    widths = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=pieces, max_size=pieces)))
    u = draw(st.lists(st.floats(-1.5, 1.5), min_size=pieces, max_size=pieces))
    for j in range(1, pieces):
        if draw(st.booleans()):
            u[j] = u[j - 1]
    if draw(st.booleans()):
        u[draw(st.sampled_from([0, -1]))] = 0.0
    breaks = np.concatenate([[0.0], np.cumsum(widths)[:-1] / np.sum(widths), [1.0]])
    return pwl_target(breaks, np.exp(u), anchor=draw(st.sampled_from([0.0, 0.7, -1.3])))


def _tube_radius_reference(values, T, lo):
    """The fixed 100-step bisection on numpy scalars that ``_tube_radius`` shortens."""
    def cost(gamma):
        pos = cst = 0.0
        for v in values:
            if pos < v - gamma:
                cst += v - gamma - pos
                pos = v - gamma
            elif pos > v + gamma:
                cst += pos - (v + gamma)
                pos = v + gamma
        return cst + abs(pos)

    hi = float(np.max(np.abs(values))) + 1e-12
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if cost(mid) <= T:
            hi = mid
        else:
            lo = mid
    return hi


class TestTvLogDerivative:
    def test_identity_zero(self):
        p = tv_log_derivative(builtin_target_1d("identity"))
        assert p.tv == 0.0 and p.tv_interior == 0.0

    def test_two_slope_extension_convention(self):
        # phi' = 2 then 1: interior jump ln 2 plus boundary terms ln 2 + 0.
        p = tv_log_derivative(pwl_target([0.0, 0.5, 1.0], [2.0, 1.0]))
        assert p.tv == pytest.approx(2.0 * math.log(2.0), abs=1e-15)
        assert p.tv_interior == pytest.approx(math.log(2.0), abs=1e-15)

    def test_smooth_target_against_riemann_oracle(self):
        p = tv_log_derivative(builtin_target_1d("quad"))
        xs = np.linspace(0.0, 1.0, 10**6 + 1)
        u = np.log(xs + 0.5)
        oracle = float(np.sum(np.abs(np.diff(u))) + abs(u[0]) + abs(u[-1]))
        assert p.tv == pytest.approx(oracle, abs=1e-4)

    def test_nonpositive_derivative_rejected(self):
        with pytest.raises(ValueError):
            tv_log_derivative(builtin_target_1d("dec1"))

    @example([0.0])
    @example([0.7])
    @example([0.3, 0.3])
    @given(log_slope_lists())
    @settings(max_examples=100, deadline=None)
    def test_derived_totals_are_exact_sums(self, values):
        p = pwc_profile(np.linspace(0.0, 1.0, len(values) + 1)[1:-1], values)
        jumps = extended_jumps(values)
        assert p.tv == math.fsum(abs(a) for a in jumps)
        assert p.tv_interior == math.fsum(abs(a) for a in jumps[1:-1])
        assert p.pieces == len(values)


class TestCompileHeaviside:
    def test_flat_profile_identity(self):
        p = tv_log_derivative(builtin_target_1d("identity"))
        sched = compile_heaviside_flow(p, anchor=0.0)
        assert sched.total_time == 0.0
        xs = np.linspace(0, 1, 17)[:, None]
        np.testing.assert_array_equal(flow_eval(sched, xs), xs)

    def test_single_jump_slopes(self):
        # one jump ln 2 at 1/2: slope 1 left, 2 right (up to the 0-jump base)
        target = pwl_target([0.0, 0.5, 1.0], [1.0, 2.0])
        sched = compile_heaviside_flow(tv_log_derivative(target), anchor=0.0)
        h = 1e-7
        left = (flow_eval(sched, np.array([[0.3 + h]])) - flow_eval(sched, np.array([[0.3 - h]]))) / (2 * h)
        right = (flow_eval(sched, np.array([[0.8 + h]])) - flow_eval(sched, np.array([[0.8 - h]]))) / (2 * h)
        assert left[0, 0] == pytest.approx(1.0, rel=1e-6)
        assert right[0, 0] == pytest.approx(2.0, rel=1e-6)

    def test_four_piece_breakpoints_and_time(self):
        target = builtin_target_1d("pwl4")
        profile = tv_log_derivative(target)
        sched = compile_heaviside_flow(profile, anchor=0.0)
        bp = target.pwl.breakpoints
        out = flow_eval(sched, bp[:, None])[:, 0]
        assert float(np.max(np.abs(out - target.pwl.values()))) <= 1e-6
        assert abs(sched.total_time - profile.tv) <= 1e-12

    def test_nonzero_anchor_uses_gadget(self):
        target = pwl_target([0.0, 0.5, 1.0], [1.0, 2.0], anchor=0.4)
        profile = tv_log_derivative(target)
        sched = compile_heaviside_flow(profile, anchor=0.4)
        xs = np.linspace(0, 1, 101)
        out = flow_eval(sched, xs[:, None])[:, 0]
        assert float(np.max(np.abs(out - target.fn(xs)))) <= 1e-9
        assert sched.total_time <= profile.tv + 0.01 + 1e-12

    def test_sampled_profile_rejected(self):
        profile = tv_log_derivative(builtin_target_1d("quad"))
        with pytest.raises(ValueError):
            compile_heaviside_flow(profile, anchor=0.0)

    @given(random_pwl_targets())
    @settings(max_examples=60, deadline=None)
    def test_kinks_match_flow_composition_and_target(self, target):
        # Oracle: each kink is its jump's location flowed through the stages
        # before it, one flow_scalar per stage.
        profile = tv_log_derivative(target)
        anchor = target.pwl.anchor
        sched = compile_heaviside_flow(profile, anchor=anchor)
        # A stage sits at every knot where the slope, 1 outside [0, 1], changes.
        knots = np.concatenate([[0.0], profile.breakpoints, [1.0]])
        slopes = np.concatenate([[1.0], np.exp(profile.values), [1.0]])
        jumps = knots[slopes[1:] != slopes[:-1]].tolist()
        stages = sched.steps[:len(jumps)]
        assert [f.label for f, _ in sched.steps[len(jumps):]] == \
            ([] if anchor == 0.0 else ["shift_contract", "shift_expand"])
        for j, (c, (f, _)) in enumerate(zip(jumps, stages)):
            z = c
            for g, tau in stages[:j]:
                z = g.pwl.flow_scalar(z, tau)
            (kink,) = f.pwl.kinks
            assert abs(kink - z) <= 4 * profile.pieces * np.finfo(float).eps * abs(z)
        xs = np.concatenate([target.pwl.breakpoints, np.linspace(0.0, 1.0, 41)])
        out = flow_eval(sched, xs[:, None])[:, 0]
        assert float(np.max(np.abs(out - target.fn(xs)))) <= 1e-9

    def test_kinks_placed_without_flow_scalar(self, monkeypatch):
        def no_walk(*args, **kwargs):
            raise AssertionError("kink placement walked a flow")

        monkeypatch.setattr(PwlField, "flow_scalar", no_walk)
        compile_heaviside_flow(tv_log_derivative(builtin_target_1d("pwl4")), anchor=0.5)
        compile_pwl_map([-1.0, 0.5], [2.0, 0.5, 3.0], 0.2, -4.0)

    @pytest.mark.parametrize("breakpoints,values,defect", [
        ([0.5], [0.1, 0.2, 0.3], "one value per interval"),
        ([0.6, 0.3], [0.1, 0.2, 0.3], "strictly increasing"),
        ([0.0, 0.5], [0.1, 0.2, 0.3], "inside"),
        ([0.5, 1.2], [0.1, 0.2, 0.3], "inside"),
        ([0.5], [0.1, math.nan], "finite"),
        ([0.5], [math.inf, 0.2], "finite"),
        ([0.5], [0.1, -math.inf], "finite"),
    ])
    def test_malformed_profile_rejected(self, breakpoints, values, defect):
        with pytest.raises(ValueError, match=defect):
            compile_heaviside_flow(pwc_profile(breakpoints, values), anchor=0.0)


class TestTranslationGadget:
    def test_zero_delta_empty(self):
        assert len(translation_gadget(0.0, 0.01)) == 0

    @pytest.mark.parametrize("delta,slack", [(1.0, 0.01), (-2.5, 0.02), (0.3, 1e-4)])
    def test_shift_on_unit_interval(self, delta, slack):
        sched = translation_gadget(delta, slack)
        xs = np.linspace(0, 1, 33)
        out = flow_eval(sched, xs[:, None])[:, 0]
        assert float(np.max(np.abs(out - xs - delta))) <= 1e-9
        assert sched.total_time == pytest.approx(slack, abs=1e-15)
        for f, _ in sched.steps:  # normalization |v| = |w| = 1
            terms = np.asarray(f.params["V"]).ravel()
            assert np.all(np.abs(terms) == 1.0)


class TestCompilePwlMap:
    def test_scaling_and_kinks(self):
        sched = compile_pwl_map([0.0, 1.0], [0.5, 2.0, 1.0], 0.0, 0.0, slack=1e-6)
        xs = np.array([-2.0, 0.0, 0.5, 1.0, 3.0])
        expect = np.array([-1.0, 0.0, 1.0, 2.0, 4.0])
        out = flow_eval(sched, xs[:, None])[:, 0]
        np.testing.assert_allclose(out, expect, atol=1e-8)

    @pytest.mark.parametrize("breakpoints,slopes,anchor_x,anchor_value", [
        ([-3.0, -1.0, 0.5, 2.0], [0.25, 4.0, 4.0, 1.5, 0.6], 0.7, -2.0),
        ([-2.5, -0.5], [3.0, 3.0, 0.2], -4.0, 10.0),
        ([-1.0, 1.0], [1.0, 2.0, 1.0], 1.0, 1e3),
    ])
    def test_matches_interpolated_map(self, breakpoints, slopes, anchor_x, anchor_value):
        bp, sl = np.asarray(breakpoints), np.asarray(slopes)
        sched = compile_pwl_map(bp, sl, anchor_x, anchor_value)
        r = max(abs(anchor_x), float(np.max(np.abs(bp)))) + 1.0
        knots = np.concatenate([[-r], bp, [r]])
        vals = np.concatenate([[0.0], np.cumsum(sl * np.diff(knots))])
        vals += anchor_value - np.interp(anchor_x, knots, vals)
        xs = np.concatenate([knots, np.linspace(-r, r, 57)])
        out = flow_eval(sched, xs[:, None])[:, 0]
        np.testing.assert_allclose(out, np.interp(xs, knots, vals), rtol=0, atol=1e-9)

    def test_gadget_covers_the_given_interval(self):
        # With no breakpoints the default reach is |anchor_x| + 1 = 1, so x = 2
        # lies beyond the rigid part of the shift unless the interval is given.
        xs = np.array([0.0, 1.0, 2.0])
        sched = compile_pwl_map([], [2.0], 0.0, -1.0, cover=(0.0, 2.0))
        out = flow_eval(sched, xs[:, None])[:, 0]
        np.testing.assert_allclose(out, 2.0 * xs - 1.0, rtol=0, atol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            compile_pwl_map([0.0], [1.0], 0.0, 0.0)
        with pytest.raises(ValueError):
            compile_pwl_map([0.0], [1.0, -1.0], 0.0, 0.0)

    @pytest.mark.parametrize("args,kwargs,name", [
        (([0.0, math.nan], [1.0, 2.0, 1.0], 0.0, 0.0), {}, "breakpoints"),
        (([-math.inf], [1.0, 2.0], 0.0, 0.0), {}, "breakpoints"),
        (([0.0], [1.0, math.inf], 0.0, 0.0), {}, "slopes"),
        (([0.0], [math.nan, 1.0], 0.0, 0.0), {}, "slopes"),
        (([0.0], [1.0, 2.0], math.nan, 0.0), {}, "anchor_x"),
        (([0.0], [1.0, 2.0], 0.0, math.nan), {}, "anchor_value"),
        (([0.0], [1.0, 2.0], 0.0, -math.inf), {}, "anchor_value"),
        (([], [2.0], 0.0, -1.0), {"cover": (2.0, 0.0)}, "cover"),
        (([], [2.0], 0.0, -1.0), {"cover": (1.0, 1.0)}, "cover"),
        (([], [2.0], 0.0, -1.0), {"cover": (0.0, math.inf)}, "cover"),
        (([], [2.0], 0.0, -1.0), {"cover": (math.nan, 1.0)}, "cover"),
    ])
    def test_nonfinite_arguments_and_empty_cover_rejected(self, args, kwargs, name, monkeypatch):
        def no_build(*a, **k):
            raise AssertionError("a stage was built")

        monkeypatch.setattr(rates, "field_from_terms_1d", no_build)
        with pytest.raises(ValueError, match=name):
            compile_pwl_map(*args, **kwargs)


@st.composite
def random_sweep_targets(draw):
    """Increasing PWL targets on [0, 1] with 1-40 pieces and anchors in
    [-1, 1]; ln(phi') is drawn sorted (monotone), as one peak, or as is."""
    pieces = draw(st.integers(1, 40))
    widths = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=pieces, max_size=pieces)))
    u = draw(st.lists(st.floats(-1.5, 1.5), min_size=pieces, max_size=pieces))
    shape = draw(st.sampled_from(["monotone", "peak", "any"]))
    if shape == "monotone":
        u = sorted(u, reverse=draw(st.booleans()))
    elif shape == "peak":
        k = draw(st.integers(0, pieces))
        u = sorted(u[:k]) + sorted(u[k:], reverse=True)
    breaks = np.concatenate([[0.0], np.cumsum(widths)[:-1] / np.sum(widths), [1.0]])
    return pwl_target(breaks, np.exp(u), anchor=draw(st.floats(-1.0, 1.0)))


class TestGammaRelaxed:
    def test_budget_at_or_above_tv_is_free(self):
        p = tv_log_derivative(builtin_target_1d("pwl4"))
        assert gamma_relaxed(p, p.tv).value == 0.0
        assert gamma_relaxed(p, p.tv + 1.0).value == 0.0

    def test_monotone_closed_form(self):
        p = tv_log_derivative(builtin_target_1d("mono_tv1"))
        assert p.tv == pytest.approx(1.0, abs=1e-15)
        res = gamma_relaxed(p, 0.4)
        assert res.value == pytest.approx(0.3, abs=1e-15)
        assert res.optimal and res.kind == "monotone"

    def test_single_peak_takes_the_tube_radius(self):
        # Both ends of the peak move by gamma: the first end is negative, the
        # last one within gamma of zero, so the lazy tube path costs tv - 4 gamma
        # and the search finds (tv - T) / 4, reported as a bound.
        target = pwl_target([0.0, 1 / 3, 2 / 3, 1.0], np.exp([-0.5, 0.6, 0.1]))
        p = tv_log_derivative(target)
        res = gamma_relaxed(p, p.tv - 1.0)
        assert res.value == pytest.approx(0.25, abs=1e-12)
        assert not res.optimal and res.kind == "tube_bound"

    @pytest.mark.parametrize("u, T", [([-1.0, 1.0], 2.0), ([-1.0, 1.0, -1.0], 3.0)],
                             ids=["monotone_crossing_zero", "single_peak"])
    def test_closed_forms_that_overshot(self, u, T):
        # (tv - T) / 2 gave 1.0 for the first, claimed optimal, and the quarter
        # form 0.75 for the second; a tube of radius 0.5 fits T in both.
        breaks = np.linspace(0.0, 1.0, len(u) + 1)
        target = pwl_target(breaks, np.exp(u))
        p = tv_log_derivative(target)
        res = gamma_relaxed(p, T)
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert not res.optimal and res.kind == "tube_bound"
        built = budgeted_schedule(target, T)
        assert built.quantized_tv <= T + 1e-9
        assert np.max(np.abs(built.quantized_values - np.asarray(u))) <= res.value + 1e-12

    def test_unimodal_quarter_form_infeasible_searches_tube(self):
        # All of u is positive, so only the peak can move: the extended TV is
        # 2 (0.6 - gamma), and T = tv - 1 = 0.2 needs gamma = 0.5, not 0.25.
        target = pwl_target([0.0, 1 / 3, 2 / 3, 1.0], np.exp([0.2, 0.6, 0.1]))
        p = tv_log_derivative(target)
        T = p.tv - 1.0
        res = gamma_relaxed(p, T)
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert not res.optimal and res.kind == "tube_bound"
        built = budgeted_schedule(target, T)
        assert built.gamma == res.value and built.quantized_tv <= T + 1e-9

    def test_general_profile_flagged_as_bound(self):
        # down-up-down shape is neither monotone nor single-peak
        target = pwl_target([0.0, 0.25, 0.5, 0.75, 1.0], np.exp([0.4, -0.2, 0.5, -0.1]))
        p = tv_log_derivative(target)
        res = gamma_relaxed(p, p.tv / 2)
        assert not res.optimal and res.kind == "tube_bound"
        assert res.value > 0

    @given(st.floats(0.0, 2.0), st.floats(0.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_budget(self, t1, t2):
        target = pwl_target([0.0, 0.25, 0.5, 0.75, 1.0], np.exp([0.4, -0.2, 0.5, -0.1]))
        p = tv_log_derivative(target)
        lo, hi = min(t1, t2), max(t1, t2)
        assert gamma_relaxed(p, hi).value <= gamma_relaxed(p, lo).value + 1e-12

    @given(random_sweep_targets(), st.floats(0.0, 1.2))
    @example(pwl_target([0.0, 1.0], [math.e]), 0.9999999999999999)  # gamma = 2^-53
    @settings(max_examples=100, deadline=None)
    def test_quantized_profile_within_budget_and_gamma(self, target, frac):
        p = tv_log_derivative(target)
        T = frac * p.tv
        res = gamma_relaxed(p, T)
        built = budgeted_schedule(target, T)
        v = built.quantized_values
        assert built.gamma == res.value
        assert math.fsum(abs(a) for a in extended_jumps(v.tolist())) <= T + 1e-9
        assert np.max(np.abs(p.values - v)) <= res.value + 1e-12
        if res.optimal and res.value > 0.0:
            # No narrower tube fits T: the lazy path is the cheapest in a tube.
            # It shrinks by more than the rounding of the cost: at gamma = 2^-53,
            # gamma * (1 - 1e-9) alone rounds to a cost of exactly T.
            narrower = max(0.0, res.value * (1 - 1e-9) - 4 * float(np.spacing(p.tv)))
            assert rates._lazy_tube_cost(p.values, narrower) > T

    @given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=30), st.floats(0.0, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_tube_radius_equals_full_bisection(self, values, frac):
        u = np.asarray(values)
        tv = rates._lazy_tube_cost(u, 0.0)
        assert rates._tube_radius(u, frac * tv) == _tube_radius_reference(u, frac * tv, 0.0)


def _assert_row_is_sup_of_schedule(target, profile, T, row):
    """The row's gamma is gamma_relaxed's and the schedule's, whose quantized
    profile keeps within T; the measured error is that schedule's sup: equal
    at the knots, at least a dense grid's."""
    built = budgeted_schedule(target, T)
    assert row["gamma"] == gamma_relaxed(profile, T).value == built.gamma
    assert built.quantized_tv <= T + 1e-9
    sched = built.schedule
    knots = target.pwl.breakpoints
    at_knots = flow_eval(sched, knots[:, None])[:, 0] - target.fn(knots)
    assert abs(row["measured"] - float(np.max(np.abs(at_knots)))) <= 1e-12
    xs = np.linspace(0.0, 1.0, 4097)
    on_grid = flow_eval(sched, xs[:, None])[:, 0] - target.fn(xs)
    assert row["measured"] >= float(np.max(np.abs(on_grid))) - 1e-12


class TestBudgetedError:
    def test_identity_bound_zero(self):
        (row,) = rate_sweep(builtin_target_1d("identity"), [0.5])
        assert row["bound"] == 0.0

    def test_closed_form_plug_in(self):
        # increasing u with tv 1, T = 0.4, sup phi' = e^{0.5}
        target = builtin_target_1d("mono_tv1")
        (row,) = rate_sweep(target, [0.4])
        assert row["bound"] == pytest.approx(math.expm1(0.3) * math.exp(0.5), rel=1e-12)

    def test_constructed_approximants_meet_bound(self):
        target = builtin_target_1d("mono_tv1")
        rows = rate_sweep(target, [0.25, 0.5, 0.75, 1.0])
        for row in rows:
            assert row["measured"] <= row["bound"] * 1.001 + 1e-12
        assert rows[-1]["measured"] <= 1e-9

    def test_sweep_rows_match_public_gamma_and_schedule(self):
        target = pwl_target([0.0, 0.25, 0.5, 0.75, 1.0], np.exp([0.4, -0.2, 0.5, -0.1]), anchor=0.2)
        profile = tv_log_derivative(target)
        budgets = [0.25 * profile.tv, 0.6 * profile.tv, profile.tv]
        for T, row in zip(budgets, rate_sweep(target, budgets)):
            _assert_row_is_sup_of_schedule(target, profile, T, row)

    # A flat peak at T = tv / 2: the quarter form's radius 0.25 overspends the
    # budget, and a row that reported it read measured 1.07 over bound 0.77.
    @example(pwl_target([0.0, 1 / 3, 2 / 3, 1.0], np.exp([1.0, 1.0001, 1.0])), 0.5)
    @given(random_sweep_targets(), st.floats(0.0, 1.2))
    @settings(max_examples=60, deadline=None)
    def test_sweep_rows_exact_and_within_bound(self, target, frac):
        profile = tv_log_derivative(target)
        T = frac * profile.tv
        (row,) = rate_sweep(target, [T])
        _assert_row_is_sup_of_schedule(target, profile, T, row)
        assert row["measured"] <= row["bound"] * (1 + 1e-9) + 1e-12

    def test_budgeted_schedule_spend_within_budget(self):
        target = builtin_target_1d("mono_tv1")
        for T in (0.25, 0.5, 0.75):
            built = budgeted_schedule(target, T)
            assert built.quantized_tv <= T + 1e-9
            assert built.schedule.total_time <= T + 0.01 + 1e-9

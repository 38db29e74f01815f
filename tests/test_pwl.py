"""Differential tests for the exact piecewise-linear flow kernel.

The kernel underpins every construction, so it is checked against an
independent adaptive integrator on random term lists, including trajectories
that cross kinks, park on equilibria, and start exactly on kinks.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from flowmap.core import FlowEvalError
from flowmap.families import negated_field, relu_well_1d, soft_threshold_well_1d
from flowmap.oned import TransportError, transport_time
from flowmap.pwl import PwlField
from helpers import biases, entries, pwl_tables_oracle, table_term_lists, term_lists


def rk_oracle(p: PwlField, x0: float, tau: float) -> float:
    sol = solve_ivp(lambda t, y: p(y), (0.0, tau), [x0], method="RK45",
                    rtol=1e-12, atol=1e-14)
    assert sol.success
    return float(sol.y[0, -1])


def random_field(rng) -> PwlField:
    k = rng.integers(1, 5)
    terms = np.column_stack([
        rng.uniform(-1.0, 1.0, k),
        rng.choice([-1.0, 1.0], k) * rng.uniform(0.3, 1.5, k),
        rng.uniform(-1.5, 1.5, k),
    ])
    return PwlField(terms)


class TestAgainstAdaptiveIntegrator:
    def test_random_fields_random_starts(self):
        rng = np.random.default_rng(123)
        for _ in range(60):
            p = random_field(rng)
            x0 = float(rng.uniform(-2.0, 2.0))
            tau = float(rng.uniform(0.0, 2.0))
            exact = p.flow_scalar(x0, tau)
            if abs(exact) > 1e6:
                continue  # runaway growth: oracle step control dominates
            oracle = rk_oracle(p, x0, tau)
            assert exact == pytest.approx(oracle, abs=5e-9 * max(1.0, abs(oracle)))

    def test_kink_crossing_trajectory(self):
        # positive drift below the kink, exponential decay above it
        p = PwlField([(1.0, 0.0, 1.0), (-2.0, 1.0, -1.0)])
        for x0 in (-1.5, 0.0, 0.999, 1.0, 1.5):
            for tau in (0.3, 1.7, 6.0):
                assert p.flow_scalar(x0, tau) == pytest.approx(
                    rk_oracle(p, x0, tau), abs=1e-8)

    def test_equilibrium_is_never_crossed(self):
        # dz = -z: the origin is reached only asymptotically
        p = PwlField([(-1.0, 1.0, 0.0), (1.0, -1.0, 0.0)])
        assert p.flow_scalar(1.0, 50.0) > 0.0
        assert p.flow_scalar(-1.0, 50.0) < 0.0

    def test_start_exactly_on_kink(self):
        p = PwlField([(1.0, 1.0, -1.0)])  # relu(x - 1)
        assert p.flow_scalar(1.0, 5.0) == 1.0  # kink is an equilibrium here
        q = PwlField([(1.0, 0.0, 1.0), (1.0, 1.0, -1.0)])  # drift + relu
        assert q.flow_scalar(1.0, 0.5) == pytest.approx(rk_oracle(q, 1.0, 0.5), abs=1e-9)

    def test_leftward_start_on_kink(self):
        # strictly negative field with a kink: moving left through it
        p = PwlField([(-1.0, 0.0, 1.0), (-1.0, 1.0, -1.0)])
        assert p.flow_scalar(1.0, 0.7) == pytest.approx(rk_oracle(p, 1.0, 0.7), abs=1e-9)


    def test_time_left_after_the_walk_raises(self):
        # Tables overwritten so the velocity is +1 left of the kink at 0 and
        # -1 right of it: the kink is no equilibrium, yet the walk can never
        # leave it, so it must say that time was left, for one point or many.
        # relu(x) fixes its kink; the corrupted tables do not, so the flag is
        # cleared too and both calls reach the walk.
        p = PwlField([(1.0, 1.0, 0.0)])
        for name, val in (("_slope", np.zeros(2)), ("_icept", np.array([1.0, -1.0])),
                          ("fixes_kinks", False)):
            object.__setattr__(p, name, val)
        with pytest.raises(FlowEvalError, match="left time 0.5 .* over 1 kinks"):
            p.flow_scalar(-0.5, 1.0)
        with pytest.raises(FlowEvalError, match="left time 0.5 .* over 1 kinks"):
            p.flow(np.array([-0.5, 2.0]), 1.0)


def _scale(p: PwlField, *zs) -> float:
    """Size of the numbers the closed forms round: points and equilibria."""
    eqs = [abs(c / a) for a, c in zip(p._slope.tolist(), p._icept.tolist()) if a != 0.0]
    return max([1.0, *map(abs, zs), *eqs])


def _equilibria(terms) -> list:
    """Zeros of the field, one per piece, from the independent numpy tables."""
    kinks, slope, icept = pwl_tables_oracle(terms)
    edges = np.concatenate([[kinks[0] - 1.0] if len(kinks) else [-1.0], kinks,
                            [kinks[-1] + 1.0] if len(kinks) else [1.0]])
    out = []
    for j, (a, c) in enumerate(zip(slope, icept)):
        lo, hi = (-np.inf if j == 0 else edges[j]), (np.inf if j == len(slope) - 1 else edges[j + 1])
        if a != 0.0 and lo <= -c / a <= hi:
            out.append(-c / a)
        elif a == 0.0 and c == 0.0:
            out.append(0.5 * (edges[j] + edges[j + 1]))
    return out


points = st.integers(-192, 192).map(lambda k: k / 64.0) | st.floats(-3.0, 3.0)


class TestHittingTime:
    @given(term_lists, points, points)
    @settings(max_examples=300, deadline=None)
    def test_flow_for_the_hitting_time_lands_on_the_target(self, terms, z0, z1):
        p = PwlField(terms)
        t = p.hitting_time(z0, z1)
        assume(math.isfinite(t))
        # A few ulps of the scale, amplified by the speed-up along the way,
        # |f(z1) / f(z0)|, which multiplies the time's own rounding.
        growth = max(1.0, abs(float(p(z1)) / float(p(z0)))) if z0 != z1 else 1.0
        tol = 16 * np.spacing(_scale(p, z0, z1)) * growth
        assert abs(p.flow_scalar(z0, t) - z1) <= tol
        assert abs(p.flow(np.array([z0]), t)[0] - z1) <= tol

    @given(term_lists, points, st.floats(0.05, 3.0))
    @settings(max_examples=300, deadline=None)
    def test_hitting_time_of_a_flow_endpoint_returns_tau(self, terms, z0, tau):
        p = PwlField(terms)
        z1 = p.flow_scalar(z0, tau)
        # The endpoint is known to an ulp, which costs ulp / |f(z1)| in time:
        # keep cases where that is far below tau.
        assume(z0 != z1 and abs(float(p(z1))) * tau >= 1e-3 * _scale(p, z0, z1))
        assert p.hitting_time(z0, z1) == pytest.approx(tau, rel=1e-12)

    @given(term_lists, st.data())
    @settings(max_examples=300, deadline=None)
    def test_an_equilibrium_in_between_makes_it_infinite(self, terms, data):
        # The endpoints are drawn around an equilibrium rather than filtered
        # for one, which would discard most draws.
        eqs = _equilibria(terms)
        assume(eqs)
        e = data.draw(st.sampled_from(eqs))
        gaps = st.floats(2e-9, 3.0)
        z0, z1 = e - data.draw(gaps), e + data.draw(gaps)
        assume(z0 < e < z1)
        if data.draw(st.booleans()):
            z0, z1 = z1, z0
        p = PwlField(terms)
        assert p.hitting_time(z0, z1) == math.inf
        assert p.hitting_time(z1, z0) == math.inf

    def test_targets_in_or_across_the_zero_interval(self):
        well = relu_well_1d(-1.0, 0.0)
        drive = well.field.pwl
        for z0, z1 in ((2.0, -0.5), (2.0, 0.0), (-3.0, -1.0), (-3.0, 1.0), (-0.5, 2.0)):
            assert drive.hitting_time(z0, z1) == math.inf
            assert negated_field(well.field).pwl.hitting_time(z0, z1) == math.inf
        for z0, z1 in ((2.0, -0.5), (-3.0, 1.0), (-0.5, 2.0)):
            with pytest.raises(TransportError):
                transport_time(well, z0, z1)

    def test_kink_crossing_time_agrees_with_rk45(self):
        # The soft threshold's kinks at +-2 are no equilibria: both paths
        # cross one.
        p = soft_threshold_well_1d().field.pwl
        for z0, z1 in ((1.5, 3.0), (-3.0, -1.5)):
            t = p.hitting_time(z0, z1)
            assert math.isfinite(t)
            assert rk_oracle(p, z0, t) == pytest.approx(z1, abs=1e-9)


def _walked(p: PwlField, x: np.ndarray, tau: float) -> np.ndarray:
    z = x.copy()
    p._walk_inplace(z, tau)
    return z


class TestAffineKinkFixingFlow:
    """Fields that fix their kinks flow each point by its piece's affine map;
    the kink walk is the oracle, bit for bit."""

    TAUS = (1e-3, 0.7, 40.0, 3000.0)  # 3000 overflows exp(a tau)

    @staticmethod
    def _points(p: PwlField) -> np.ndarray:
        k = p.kinks
        near = np.concatenate([k, np.nextafter(k, -np.inf), np.nextafter(k, np.inf)])
        return np.concatenate([near, [-1e300, -1e3, -0.3, 0.0, 0.45, 7.0, 1e3, 1e300]])

    def test_wells_and_unit_slope_stages(self):
        well = relu_well_1d(-1.0, 0.0)
        fields = [well.field.pwl, well.translated(0.37).field.pwl,
                  negated_field(well.translated(-2.5).field).pwl,
                  well.translated(1e3).field.pwl,
                  PwlField([(0.7, 1.0, -0.3)]), PwlField([(-1.3, -1.0, 0.25)]),
                  PwlField([(2.0, 1.0, 1.1)]), PwlField([(-0.5, -1.0, -4.0)])]
        overflowed = False
        for p in fields:
            assert p.fixes_kinks
            x = self._points(p)
            for tau in self.TAUS:
                out = p.flow(x, tau)
                np.testing.assert_array_equal(out, _walked(p, x, tau))
                overflowed |= bool(np.isinf(out[np.isfinite(x)]).any())
        assert overflowed

    @given(entries, st.sampled_from([-1.0, 1.0]), biases, points, st.sampled_from(TAUS))
    @settings(max_examples=200, deadline=None)
    def test_single_term_stages(self, v, w, b, z, tau):
        p = PwlField([(v, w, b)])
        assert p.fixes_kinks
        x = np.concatenate([self._points(p), [z]])
        np.testing.assert_array_equal(p.flow(x, tau), _walked(p, x, tau))

    def test_euler_steps_needs_fixed_kinks(self):
        # The soft-threshold well moves at its kinks +-2, so points cross them.
        with pytest.raises(ValueError, match="needs a field that fixes its kinks"):
            soft_threshold_well_1d().field.pwl.euler_steps(np.zeros(3), 0.1, 4)


class TestVectorScalarConsistency:
    def test_shape_and_scalar_return(self):
        p = PwlField([(0.5, 1.0, 0.0)])
        assert isinstance(p.flow_scalar(1.0, 1.0), float)
        assert p.flow(np.ones((3, 4)), 0.2).shape == (3, 4)
        assert isinstance(p.flow(1.0, 0.5), float)


class TestFieldAlgebra:
    def test_eval_matches_terms(self):
        p = PwlField([(0.5, -1.0, 0.2), (-0.3, 1.0, 0.7)])
        xs = np.linspace(-2, 2, 41)
        expect = 0.5 * np.maximum(-xs + 0.2, 0) - 0.3 * np.maximum(xs + 0.7, 0)
        np.testing.assert_allclose(p(xs), expect, rtol=1e-14)

    # Ten terms, all active on the last piece: there numpy sums pairwise and
    # the in-order sum of the slopes 0.1 k differs in the last bit.
    @example([(0.1 * k, 1.0, -k / 16.0) for k in range(1, 11)])
    @given(table_term_lists())
    @settings(max_examples=200, deadline=None)
    def test_tables_equal_per_piece_numpy_sums(self, terms):
        p = PwlField(terms)
        kinks, slope, icept = pwl_tables_oracle(terms)
        assert np.array_equal(p._kinks, kinks)
        assert np.array_equal(p._slope, slope)
        assert np.array_equal(p._icept, icept)

    @pytest.mark.parametrize("bad, k, entry", [
        ((math.nan, 1.0, 0.0), 1, "(nan, 1.0, 0.0)"),
        ((1.0, 1.0, math.nan), 1, "(1.0, 1.0, nan)"),
        ((1.0, math.inf, 0.0), 1, "(1.0, inf, 0.0)"),
    ], ids=["nan_v", "nan_b", "inf_w"])
    def test_non_finite_term_rejected(self, bad, k, entry):
        # A NaN b once dropped its kink from the exact kernel, so the flow of
        # [(1, 1, nan), (1, 1, 0)] from 0.5 over time 1 returned 1.359.
        with pytest.raises(ValueError, match=re.escape(f"pwl term {k} is not finite: "
                                                       f"(v, w, b) = {entry}")):
            PwlField([(1.0, 1.0, 0.0), bad, (0.5, 0.0, 1.0)])

    def test_zero_w_term_still_legal(self):
        p = PwlField([(0.5, 0.0, 2.0), (1.0, 1.0, 0.0)])
        assert p(np.array([-1.0, 1.0])).tolist() == [1.0, 2.0]

    def test_negative_tau_rejected(self):
        p = PwlField([(1.0, 1.0, 0.0)])
        with pytest.raises(ValueError):
            p.flow_scalar(0.0, -1.0)
        with pytest.raises(ValueError):
            p.flow(np.zeros(2), -0.5)

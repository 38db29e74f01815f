"""Differential tests for the exact piecewise-linear flow kernel.

The kernel underpins every construction, so it is checked against an
independent adaptive integrator on random term lists, including trajectories
that cross kinks, park on equilibria, and start exactly on kinks.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.integrate import solve_ivp

from flowmap.core import FlowEvalError
from flowmap.pwl import PwlField
from helpers import pwl_tables_oracle, table_term_lists


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
        # leave it, so both kernels must say that time was left.
        p = PwlField([(1.0, 1.0, 0.0)])
        for name, val in (("_slope", np.zeros(2)), ("_icept", np.array([1.0, -1.0])),
                          ("_sl", [0.0, 0.0]), ("_cl", [1.0, -1.0])):
            object.__setattr__(p, name, val)
        with pytest.raises(FlowEvalError, match="left time 0.5 .* over 1 kinks"):
            p.flow_scalar(-0.5, 1.0)
        with pytest.raises(FlowEvalError, match="left time 0.5 .* over 1 kinks"):
            p.flow(np.array([-0.5, 2.0]), 1.0)


class TestVectorScalarConsistency:
    def test_batch_matches_scalar(self):
        # np.exp and math.exp may differ in the last ulp, so the two paths
        # agree to rounding, not bit-for-bit.
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = random_field(rng)
            xs = rng.uniform(-2.5, 2.5, size=11)
            tau = float(rng.uniform(0.0, 1.5))
            vec = p.flow(xs, tau)
            scal = np.array([p.flow_scalar(float(x), tau) for x in xs])
            np.testing.assert_allclose(vec, scal, rtol=1e-14, atol=1e-15)

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

    def test_lipschitz_is_max_piece_slope(self):
        p = PwlField([(1.0, 1.0, 0.0), (2.0, 1.0, -1.0)])
        assert p.lipschitz_bound == 3.0  # both terms active right of 1

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

    def test_negative_tau_rejected(self):
        p = PwlField([(1.0, 1.0, 0.0)])
        with pytest.raises(ValueError):
            p.flow_scalar(0.0, -1.0)
        with pytest.raises(ValueError):
            p.flow(np.zeros(2), -0.5)

"""Convex-combination emulation by alternating flows."""

import math
from fractions import Fraction

import numpy as np
import pytest

from flowmap.core import Schedule, flow_eval
from flowmap.families import field_from_terms_1d
from flowmap.splitting import average_flow_schedule, convex_combo_schedule
from helpers import RK12

LIN = field_from_terms_1d([(1.0, 1.0, 0.0), (-1.0, -1.0, 0.0)], label="z")
ONE = field_from_terms_1d([(1.0, 0.0, 1.0)], label="1")


def test_identical_fields_exact():
    sched = average_flow_schedule(LIN, LIN, 0.8, 5)
    ref = flow_eval(Schedule(((LIN, 0.8),), 1), np.array([0.4]))
    out = flow_eval(sched, np.array([0.4]))
    assert abs(out[0] - ref[0]) <= 1e-12


def test_opposite_constants_cancel():
    neg = field_from_terms_1d([(-1.0, 0.0, 1.0)], label="-1")
    sched = average_flow_schedule(ONE, neg, 3.0, 1)
    out = flow_eval(sched, np.array([0.2]))
    assert out[0] == pytest.approx(0.2, abs=1e-12)


def test_error_decays_like_one_over_N():
    avg = field_from_terms_1d([(0.5, 1.0, 0.0), (-0.5, -1.0, 0.0), (0.5, 0.0, 1.0)])
    ref = flow_eval(Schedule(((avg, 1.0),), 1), np.array([1.0]), RK12)[0]
    errs = []
    for N in (4, 8, 16):
        out = flow_eval(average_flow_schedule(LIN, ONE, 1.0, N), np.array([1.0]))[0]
        errs.append(abs(out - ref))
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.2)


def test_single_field_weight_one():
    sched = convex_combo_schedule([LIN], [1], 0.6, 4)
    ref = flow_eval(Schedule(((LIN, 0.6),), 1), np.array([0.5]))
    np.testing.assert_allclose(flow_eval(sched, np.array([0.5])), ref, atol=1e-12)


def test_half_half_agrees_with_average():
    a = average_flow_schedule(LIN, ONE, 1.0, 3)
    c = convex_combo_schedule([LIN, ONE], [Fraction(1, 2), Fraction(1, 2)], 1.0, 3)
    assert len(a.steps) == len(c.steps)
    for (f1, t1), (f2, t2) in zip(a.steps, c.steps):
        assert f1 is f2 and t1 == t2


def test_three_affine_fields():
    two = field_from_terms_1d([(2.0, 0.0, 1.0)], label="2")
    fields = [LIN, ONE, two]
    weights = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
    # averaged field: z/2 + 1/3 + 2/6 = z/2 + 2/3
    avg = field_from_terms_1d([(0.5, 1.0, 0.0), (-0.5, -1.0, 0.0), (2.0 / 3.0, 0.0, 1.0)])
    ref = flow_eval(Schedule(((avg, 1.0),), 1), np.array([0.3]), RK12)[0]
    out = flow_eval(convex_combo_schedule(fields, weights, 1.0, 32), np.array([0.3]))[0]
    assert abs(out - ref) <= 1e-2


def test_error_monotone_in_N_random_affine_pairs():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a1, c1, a2, c2 = rng.uniform(-0.8, 0.8, size=4)
        f = field_from_terms_1d([(a1, 1.0, 0.0), (-a1, -1.0, 0.0), (c1, 0.0, 1.0)])
        g = field_from_terms_1d([(a2, 1.0, 0.0), (-a2, -1.0, 0.0), (c2, 0.0, 1.0)])
        avg = field_from_terms_1d([(0.5 * (a1 + a2), 1.0, 0.0),
                                   (-0.5 * (a1 + a2), -1.0, 0.0),
                                   (0.5 * (c1 + c2), 0.0, 1.0)])
        x = np.array([rng.uniform(-1, 1)])
        ref = flow_eval(Schedule(((avg, 1.0),), 1), x, RK12)[0]
        prev = None
        for N in (2, 4, 8, 16):
            err = abs(flow_eval(average_flow_schedule(f, g, 1.0, N), x)[0] - ref)
            if prev is not None:
                assert err <= prev * (1 + 1e-9)
            prev = err


def test_total_time_exact():
    for t in (1.0, math.pi, 0.123456789, 7.5):
        sched = convex_combo_schedule([LIN, ONE], [Fraction(1, 3), Fraction(2, 3)], t, 5)
        assert sched.total_time == t


def test_weight_validation():
    with pytest.raises(ValueError):
        convex_combo_schedule([LIN, ONE], [Fraction(1, 2), Fraction(1, 3)], 1.0, 2)
    with pytest.raises(ValueError):
        convex_combo_schedule([LIN], [Fraction(1, 100)], 1.0, 2, max_denominator=64)
    with pytest.raises(ValueError):
        convex_combo_schedule([LIN, ONE], [-0.5, 1.5], 1.0, 2)


def test_irrational_weights_rationalized():
    w = 1.0 / math.sqrt(2.0)
    sched = convex_combo_schedule([LIN, ONE], [w, 1.0 - w], 1.0, 4)
    assert sched.total_time == 1.0

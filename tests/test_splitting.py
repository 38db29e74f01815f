"""Emulating the average of two fields by alternating flows."""

import math

import numpy as np
import pytest

from flowmap.core import Schedule, flow_eval
from flowmap.families import field_from_terms_1d, relu_well_nd
from flowmap.splitting import average_flow_schedule
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


def test_half_half_agrees_with_average():
    # N periods of (f, t/2N), (g, t/2N); the last slot absorbs the roundoff.
    t, N = 0.7, 3
    sched = average_flow_schedule(LIN, ONE, t, N)
    assert [id(f) for f, _ in sched.steps] == [id(LIN), id(ONE)] * N
    taus = [tau for _, tau in sched.steps]
    assert taus[:-1] == [t / (2 * N)] * (2 * N - 1)
    assert taus[-1] == t - math.fsum(taus[:-1])


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
        for N in (1, 3, 5):
            sched = average_flow_schedule(LIN, ONE, t, N)
            assert len(sched.steps) == 2 * N and sched.total_time == t
    assert average_flow_schedule(LIN, ONE, 0.0, 4).steps == ()


def test_weight_validation():
    with pytest.raises(ValueError, match="fields must share dim"):
        average_flow_schedule(LIN, relu_well_nd(2).field, 1.0, 2)
    with pytest.raises(ValueError, match="N must be >= 1"):
        average_flow_schedule(LIN, ONE, 1.0, 0)
    for t in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="t must be finite and nonnegative"):
            average_flow_schedule(LIN, ONE, t, 2)

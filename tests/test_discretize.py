"""Euler discretization: allocation, forward pass, truncation order, export."""

import json
import math

import numpy as np
import pytest

from flowmap.core import Schedule, flow_eval
from flowmap.discretize import (euler_discretize, export_from_json, export_to_json,
                                resnet_forward, truncation_slope)
from flowmap.families import field_from_terms_1d, generic_field, relu_well_1d
from flowmap.oned import PointMatchProblem, match_points

LIN = field_from_terms_1d([(1.0, 1.0, 0.0), (-1.0, -1.0, 0.0)], label="z")


class TestEulerDiscretize:
    def test_identity_schedule(self):
        net = euler_discretize(Schedule((), 1), 16)
        out = resnet_forward(net, np.array([[0.7]]))
        assert out[0, 0] == 0.7

    def test_compound_growth(self):
        sched = Schedule(((LIN, 1.0),), 1)
        for S in (32, 128, 512):
            net = euler_discretize(sched, S)
            out = resnet_forward(net, np.array([[1.0]]))[0, 0]
            assert out == pytest.approx((1 + 1 / S) ** S, rel=1e-12)
            assert math.e - out == pytest.approx(math.e / (2 * S), rel=0.1)

    def test_time_accounting(self):
        f = LIN
        sched = Schedule(((f, 0.3), (f, 0.7), (f, 0.123)), 1)
        net = euler_discretize(sched, 100)
        assert net.S == 100
        assert math.fsum(net.deltas) == pytest.approx(sched.total_time, abs=1e-12)

    def test_S_below_step_count_rejected(self):
        sched = Schedule(((LIN, 0.1), (LIN, 0.2), (LIN, 0.3)), 1)
        with pytest.raises(ValueError):
            euler_discretize(sched, 2)

    def test_match_points_network(self):
        well = relu_well_1d(-0.5, 0.0)
        xs = np.array([0.2, 0.5, 0.8])
        ys = np.array([0.3, 0.55, 0.9])
        eps = 0.02
        sched = match_points(PointMatchProblem(xs, ys, well, eps))
        net = euler_discretize(sched, 1024)
        out = resnet_forward(net, xs[:, None])[:, 0]
        assert float(np.max(np.abs(out - ys))) <= 2 * eps


class TestTruncationSlope:
    def test_linear_field_first_order(self):
        sched = Schedule(((LIN, 1.0),), 1)
        slope, errs = truncation_slope(sched, [64, 128, 256, 512],
                                       probe_points=np.linspace(0, 1, 9)[:, None])
        assert -1.25 <= slope <= -0.75
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_identity_degenerate(self):
        slope, errs = truncation_slope(Schedule((), 2), [32, 64])
        assert slope is None and max(errs) == 0.0

    def test_relu_kink_keeps_first_order(self):
        kink = field_from_terms_1d([(1.0, 1.0, -0.37)])
        sched = Schedule(((kink, 1.2),), 1)
        slope, _ = truncation_slope(sched, [64, 128, 256, 512],
                                    probe_points=np.linspace(0, 1, 9)[:, None])
        assert slope <= -0.75

    def test_rotation_field(self):
        rot = generic_field(lambda z: np.stack([-z[..., 1], z[..., 0]], axis=-1),
                            2, 1.0, "rot")
        sched = Schedule(((rot, np.pi / 3),), 2)
        slope, errs = truncation_slope(sched, [64, 128, 256, 512])
        assert -1.25 <= slope <= -0.75
        assert all(b < a for a, b in zip(errs, errs[1:]))


class TestExport:
    def test_round_trip_bit_for_bit(self):
        well = relu_well_1d(-1.0, 0.0)
        sched = match_points(PointMatchProblem(
            np.array([0.5, 1.5]), np.array([0.7, 2.0]), well, 1e-6))
        net = euler_discretize(sched, 64)
        doc = json.loads(json.dumps(export_to_json(net)))
        back = export_from_json(doc)
        xs = np.linspace(-1, 3, 41)[:, None]
        np.testing.assert_array_equal(resnet_forward(net, xs), resnet_forward(back, xs))
        # Each run of a step's layers shares one field, as in the original.
        live = [f for f, t in sched.steps if t > 0.0]
        assert len({id(f) for f in back.fields}) == len(live)
        assert [a is b for a, b in zip(back.fields, back.fields[1:])] == \
            [a is b for a, b in zip(net.fields, net.fields[1:])]

    def test_schema_fields(self):
        net = euler_discretize(Schedule(((LIN, 0.5),), 1), 8)
        doc = export_to_json(net)
        assert doc["format_version"] == 1
        assert len(doc["delta_list"]) == len(doc["layers"]) == 8
        assert doc["meta"]["S"] == 8 and doc["meta"]["dim"] == 1

    def test_unknown_version_rejected(self):
        net = euler_discretize(Schedule(((LIN, 0.5),), 1), 4)
        doc = export_to_json(net)
        doc["format_version"] = 99
        with pytest.raises(ValueError):
            export_from_json(doc)

    def test_error_monotone_in_S(self):
        sched = Schedule(((LIN, 1.0),), 1)
        probe = np.linspace(0, 1, 9)[:, None]
        ref = flow_eval(sched, probe)
        prev = None
        for S in (16, 32, 64, 128):
            net = euler_discretize(sched, S)
            err = float(np.max(np.abs(resnet_forward(net, probe) - ref)))
            if prev is not None:
                assert err < prev
            prev = err

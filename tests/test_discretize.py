"""Euler discretization: allocation, forward pass, truncation order, export."""

import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowmap.core import BlowupError, Schedule, VectorField, field_to_json, flow_eval
from flowmap.discretize import (ResNetExport, euler_discretize, export_from_json,
                                export_to_json, resnet_forward, truncation_slope)
from flowmap.families import (field_from_terms_1d, generic_field, negated_field, relu_field,
                              relu_well_1d, relu_well_nd, soft_threshold_well_1d)
from flowmap.highd import _frozen_drive, approximate_lp
from flowmap.oned import PointMatchProblem, match_points_result
from flowmap.pwl import PwlField
from flowmap.rates import compile_heaviside_flow, tv_log_derivative
from flowmap.targets import builtin_target_1d, builtin_target_nd
from flowmap.tensor import tensor_field
from helpers import biases

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.workloads import EULER_LAYERS, euler_setup  # noqa: E402

LIN = field_from_terms_1d([(1.0, 1.0, 0.0), (-1.0, -1.0, 0.0)], label="z")
# A 2D field that reads and drives both coordinates: never hoisted.
LIN2 = relu_field(np.eye(2), np.array([[0.5, 1.0], [1.0, -0.5]]), np.array([0.1, 0.2]))


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
        layer_deltas = [d for _, k, d in net.runs for _ in range(k)]
        assert math.fsum(layer_deltas) == pytest.approx(sched.total_time, abs=1e-12)

    def test_S_below_step_count_rejected(self):
        sched = Schedule(((LIN, 0.1), (LIN, 0.2), (LIN, 0.3)), 1)
        with pytest.raises(ValueError):
            euler_discretize(sched, 2)

    @pytest.mark.parametrize("bad", [10.5, 11.0, True, False, 0, -4, "8", None, np.float64(8)])
    def test_S_not_a_positive_int_rejected(self, bad):
        sched = Schedule(((LIN, 0.5),), 1)
        with pytest.raises(ValueError, match=re.escape(f"S must be an int >= 1, got {bad!r}")):
            euler_discretize(sched, bad)
        with pytest.raises(ValueError, match="S must be an int"):
            euler_discretize(Schedule((), 1), bad)

    def test_numpy_int_S_accepted(self):
        sched = Schedule(((LIN, 0.3), (LIN, 0.7)), 1)
        net = euler_discretize(sched, np.int64(10))
        assert net.runs == euler_discretize(sched, 10).runs

    def test_match_points_network(self):
        well = relu_well_1d(-0.5, 0.0)
        xs = np.array([0.2, 0.5, 0.8])
        ys = np.array([0.3, 0.55, 0.9])
        eps = 0.02
        sched = match_points_result(PointMatchProblem(xs, ys, well, eps)).schedule
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
        sched = match_points_result(PointMatchProblem(
            np.array([0.5, 1.5]), np.array([0.7, 2.0]), well, 1e-6)).schedule
        net = euler_discretize(sched, 64)
        doc = json.loads(json.dumps(export_to_json(net)))
        back = export_from_json(doc)
        xs = np.linspace(-1, 3, 41)[:, None]
        np.testing.assert_array_equal(resnet_forward(net, xs), resnet_forward(back, xs))
        # One run per live step, with the original's layer counts and deltas.
        live = [f for f, t in sched.steps if t > 0.0]
        assert len(back.runs) == len(live)
        assert [r[1:] for r in back.runs] == [r[1:] for r in net.runs]

    def test_schema_fields(self):
        net = euler_discretize(Schedule(((LIN, 0.5),), 1), 8)
        doc = export_to_json(net)
        assert doc["format_version"] == 2
        assert doc["runs"] == [dict(field_to_json(LIN), layers=8, delta=0.0625)]
        assert doc["meta"]["S"] == 8 and doc["meta"]["dim"] == 1

    def test_unknown_version_rejected(self):
        net = euler_discretize(Schedule(((LIN, 0.5),), 1), 4)
        doc = export_to_json(net)
        doc["format_version"] = 99
        with pytest.raises(ValueError, match="unsupported export format 99"):
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


def _per_layer(net, x):
    """The per-layer Euler loop: the oracle for the run-based forward pass."""
    z = np.asarray(x, dtype=float).copy()
    for f, k, d in net.runs:
        for _ in range(k):
            z = z + d * f.eval(z)
    return z


def _ld_eval(f, z):
    """f(z) in extended precision: ReLU and tensor fields from their
    parameters, any other field through an eval that keeps the dtype."""
    if f.tag == "tensor":
        inner = f.params["inner"]["params"]
        return _ld_relu(inner, z.reshape(-1, 1)).reshape(z.shape)
    if f.tag == "relu":
        return _ld_relu(f.params, z)
    return f.eval(z)


def _ld_relu(params, z):
    V, W, b = (np.asarray(params[key], dtype=np.longdouble) for key in "VWb")
    return np.maximum(z @ W.T + b, 0.0) @ V.T


def _ld_per_layer(net, x):
    """The per-layer Euler loop in np.longdouble: the accuracy oracle."""
    z = np.asarray(x, dtype=np.longdouble)
    for f, k, d in net.runs:
        for _ in range(k):
            z = z + np.longdouble(d) * _ld_eval(f, z)
    return z


def _rel_errs(out, ref):
    return np.abs(out - ref) / np.maximum(1.0, np.abs(ref))


def _rms(errs):
    return float(np.sqrt(np.mean(np.square(errs))))


EXTENDED = np.finfo(np.longdouble).eps < np.finfo(float).eps


def _assert_run_contract(net, x, bound):
    """resnet_forward is within bound * max(1, |z|) of the per-layer loop and,
    over the batch, no less accurate than it: its root-mean-square relative
    error against the extended-precision loop is no larger.  (The largest
    error can be a floor both share, the float64 evaluation of the field,
    which the loop's k roundings jitter about.)"""
    out, loop = resnet_forward(net, x), _per_layer(net, x)
    assert np.all(np.abs(out - loop) <= bound * np.maximum(1.0, np.abs(loop)))
    if EXTENDED:
        ref = _ld_per_layer(net, x)
        assert _rms(_rel_errs(out, ref)) <= _rms(_rel_errs(loop, ref))
    return out


def _flip_2d(backend):
    sched, _ = approximate_lp(builtin_target_nd("flip", 2), eps=0.5, p=1, well=relu_well_nd(2),
                              grid_N=4, seed=0, mc_samples=2_000, transport_backend=backend)
    return sched


PTS_2D = np.random.default_rng(3).uniform(0.0, 1.0, (200, 2))


@st.composite
def kink_fixing_fields(draw):
    """A 1D field whose flow fixes every kink (a translated relu well, maybe
    negated, a single-term stage with |w| = 1, or a constant drift), as it is
    or as a tensor field at n = 2 or 3, with its kinks."""
    kind = draw(st.sampled_from(["well", "stage", "constant"]))
    v = draw(st.sampled_from([0.5, 1.0, -0.5, -1.0, 2.0]))
    if kind == "well":
        q1 = draw(biases)
        well = relu_well_1d(q1, q1 + draw(st.integers(1, 32)) / 16.0).translated(draw(biases))
        f = negated_field(well.field) if draw(st.booleans()) else well.field
    elif kind == "stage":
        f = field_from_terms_1d([(v, draw(st.sampled_from([1.0, -1.0])), draw(biases))])
    else:
        f = field_from_terms_1d([(v, 0.0, 1.0)])
    n = draw(st.sampled_from([1, 2, 3]))
    return (f if n == 1 else tensor_field(f, n)), f.pwl.kinks


class TestRunForward:
    """resnet_forward applies frozen-drive and kink-fixing runs in closed form,
    within roundoff of the per-layer loop and no less accurate than it; every
    other run is the per-layer loop, bit for bit."""

    def test_frozen_backend_schedule(self):
        net = euler_discretize(_flip_2d("frozen"), 1024)
        assert sum(k for f, k, _ in net.runs if f.frozen_drive) > net.S // 2
        _assert_run_contract(net, PTS_2D, 1e-13)

    def test_tensor_backend_schedule(self, monkeypatch):
        sched = _flip_2d("tensor")
        fields = [f for f, _ in sched.steps]
        shears = [f for f in fields if "|read[" in f.label]
        tensors = [f for f in fields if f.tag == "tensor"]
        # Co-moving and restoring shear stages read the coordinate they drive.
        assert shears and tensors
        assert not any(f.frozen_drive for f in shears + tensors)
        # At S = 1024 every tensor run has delta < 0.21 on slopes +-1, so no
        # step overshoots a kink.  The first run scales every coordinate by
        # 5.5e-5, which leaves those of PTS_2D above 0.65 on the moving tail
        # (z > 3.6e-5) of the second.
        net = euler_discretize(sched, 1024)
        moved_runs = []
        euler_steps = PwlField.euler_steps

        def counted(self, x, delta, k):
            out = euler_steps(self, x, delta, k)
            if out is not None and not np.array_equal(out, x):
                moved_runs.append(k)
            return out

        monkeypatch.setattr(PwlField, "euler_steps", counted)
        out = resnet_forward(net, PTS_2D)
        assert len(moved_runs) >= 1
        loop = _per_layer(net, PTS_2D)
        assert np.all(np.abs(out - loop) <= 1e-13 * np.maximum(1.0, np.abs(loop)))

    @pytest.mark.skipif(not EXTENDED, reason="np.longdouble is no wider than float64 here")
    @pytest.mark.xfail(strict=True, reason="on the contracting first tensor run (k log1p(delta a) "
                       "= -9.8) the closed form's relative error is about twice the loop's, and "
                       "the next run's expansion about its kink makes it visible: RMS 8.1e-15 "
                       "against 4.6e-15")
    def test_tensor_backend_schedule_no_less_accurate_than_loop(self):
        net = euler_discretize(_flip_2d("tensor"), 1024)
        _assert_run_contract(net, PTS_2D, 1e-13)

    def test_heaviside_schedule_1d(self):
        sched = compile_heaviside_flow(tv_log_derivative(builtin_target_1d("pwl4")), anchor=0.0)
        net = euler_discretize(sched, 512)
        assert all(f.pwl.fixes_kinks for f, _, _ in net.runs)
        _assert_run_contract(net, np.linspace(0.0, 1.0, 101)[:, None], 1e-13)

    def test_restricted_non_relu_frozen_drive(self):
        # A smooth field restricted by hand to drive z0 from z1 only and
        # declared a frozen drive: its runs add k increments at once.
        def drive(z):
            z = np.asarray(z)
            rate = 0.5 + 0.5 * np.tanh(2.0 * z[..., 1] - 0.15)  # sigmoid(4 z1 - 0.3)
            return np.stack([rate, np.zeros_like(rate)], axis=-1)

        g = VectorField(dim=2, eval=drive, lipschitz_bound=1.0, label="smooth_drive",
                        frozen_drive=True)
        assert not generic_field(drive, 2, 1.0).frozen_drive
        net = euler_discretize(Schedule(((g, 0.7), (LIN2, 0.2), (g, 0.4)), 2), 64)
        out = _assert_run_contract(net, PTS_2D, 1e-13)
        assert not np.array_equal(out, PTS_2D)

    def test_field_in_two_runs_and_at_two_deltas(self):
        f = relu_field([[1.0], [0.0]], [[0.0, 2.0]], [0.5])  # drives z0 from z1
        assert f.frozen_drive and not LIN2.frozen_drive
        net = ResNetExport(runs=((f, 2, 0.1), (f, 1, 0.3), (LIN2, 2, 0.2), (f, 3, 0.1)),
                           source_T=1.2, dim=2)
        _assert_run_contract(net, PTS_2D, 1e-14)

    @given(kink_fixing_fields(), st.integers(1, 64), st.floats(0.01, 4.0), st.data())
    @settings(max_examples=80, deadline=None)
    def test_kink_fixing_run_matches_per_layer(self, field_kinks, k, T, data):
        f, kinks = field_kinks
        n = f.dim
        pts = data.draw(st.lists(st.floats(-3.0, 3.0) | st.sampled_from(kinks.tolist() or [0.0]),
                                 min_size=n, max_size=12 * n))
        x = np.array(pts[:len(pts) // n * n]).reshape(-1, n)
        net = ResNetExport(runs=((f, k, T / k),), source_T=T, dim=n)
        out, loop = resnet_forward(net, x), _per_layer(net, x)
        assert np.all(np.abs(out - loop) <= 1e-12 * np.maximum(1.0, np.abs(loop)))
        on_kink = np.isin(x, kinks)
        assert np.array_equal(out[on_kink], x[on_kink])

    @pytest.mark.parametrize("net", [
        # 1 + delta a = -0.5 on the occupied piece z > 0 of z' = -z: each layer overshoots.
        ResNetExport(runs=((negated_field(LIN), 4, 1.5),), source_T=6.0, dim=1),
        # The soft-threshold well's velocity is 0.5, not 0, at its kinks +-2.
        ResNetExport(runs=((soft_threshold_well_1d().field, 7, 0.3),), source_T=2.1, dim=1),
        ResNetExport(runs=((LIN2, 5, 0.1),), source_T=0.5, dim=2),
    ], ids=["overshoot", "soft_threshold", "LIN2"])
    def test_fallback_runs_equal_per_layer_loop(self, net):
        x = np.linspace(-3.0, 3.0, 24).reshape(-1, net.dim)
        out = resnet_forward(net, x)
        np.testing.assert_array_equal(out, _per_layer(net, x))
        assert not np.array_equal(out, x)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_empty_batch(self, dim):
        sched = Schedule(((LIN if dim == 1 else LIN2, 0.5),), dim)
        out = resnet_forward(euler_discretize(sched, 8), np.empty((0, dim)))
        assert out.shape == (0, dim)

    @pytest.mark.skipif(not EXTENDED, reason="np.longdouble is no wider than float64 here")
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_euler_bridge_no_less_accurate_than_loop(self, seed):
        # The benchmark's Euler sources at its layer count, every 12th point:
        # the largest relative error against the extended-precision loop.
        for key, sched, pts in euler_setup(seed)["sources"]:
            net = euler_discretize(sched, EULER_LAYERS)
            x = pts[::12]
            ref = _ld_per_layer(net, x)
            closed = _rel_errs(resnet_forward(net, x), ref).max()
            assert closed <= _rel_errs(_per_layer(net, x), ref).max(), key

    @pytest.mark.parametrize("dim", [1, 2])
    def test_nonfinite_input_rejected(self, dim):
        net = euler_discretize(Schedule(((LIN if dim == 1 else LIN2, 0.5),), dim), 8)
        for bad in (np.nan, np.inf, -np.inf):
            x = np.zeros((3, dim))
            x[1, -1] = bad
            with pytest.raises(ValueError, match="initial point must be finite"):
                resnet_forward(net, x)

    @pytest.mark.parametrize("field, tau, message", [
        (LIN, 1000.0, "exceeded guard"),  # closed form: 126^8 = 6.3e16
        (LIN, 1e300, "non-finite"),  # closed form: exp overflows to inf
        (LIN2, 1000.0, "exceeded guard"),  # per-layer loop: 1.9e17
        # Per-layer loop: 2.0e199 after one layer; unchecked, the next
        # layer's step would overflow to inf.
        (LIN2, 1e200, "exceeded guard"),
    ], ids=["closed_form", "closed_form_inf", "loop", "loop_inf"])
    def test_blowup_raises(self, field, tau, message):
        net = euler_discretize(Schedule(((field, tau),), field.dim), 8)
        with pytest.raises(BlowupError, match=message), warnings.catch_warnings():
            warnings.simplefilter("error")
            resnet_forward(net, np.ones((2, field.dim)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_highd_frozen_drives_are_flagged(self, n):
        well = relu_well_nd(n)
        for drive in range(n):
            for read in set(range(n)) - {drive}:
                for sign in (1.0, -1.0):
                    f = _frozen_drive(well, drive, read, sign, a=0.5, offset=0.3)
                    assert f.tag == "relu" and f.frozen_drive


def _as_format_1(doc):
    """The per-layer export of earlier versions, for the same one-field network."""
    doc.pop("runs")
    doc.update(format_version=1, delta_list=[0.125] * 8, layers=[field_to_json(LIN)] * 8)


class TestExportValidation:
    @pytest.mark.parametrize("mutate, match", [
        (lambda doc: doc["runs"][0].update(layers=0), "run 0: layers must be an int >= 1, got 0"),
        (lambda doc: doc["runs"][1].update(layers=6.0),
         "run 1: layers must be an int >= 1, got 6.0"),
        (lambda doc: doc["runs"][0].pop("delta"), "lacks key 'delta'"),
        (lambda doc: doc["runs"][0].update(delta="0.125"),
         "run 0: delta must be a finite nonnegative number, got '0.125'"),
        (lambda doc: doc["runs"][0].update(delta=True),
         "run 0: delta must be a finite nonnegative number, got True"),
        (lambda doc: doc["runs"][1].update(delta=float("nan")),
         "run 1: delta must be a finite nonnegative number, got nan"),
        (lambda doc: doc["meta"].update(S=2), "meta.S=2 but the runs hold 8 layers"),
        (_as_format_1,
         "unsupported export format 1; re-run `flowmap discretize` to write format 2"),
    ], ids=["zero_layers", "float_layers", "no_delta", "string_delta", "bool_delta",
            "nan_delta", "S_counts_runs", "format_1"])
    def test_malformed_export_rejected(self, mutate, match):
        doc = export_to_json(euler_discretize(Schedule(((LIN, 0.25), (LIN, 0.75)), 1), 8))
        assert [run["layers"] for run in doc["runs"]] == [2, 6]
        mutate(doc)
        with pytest.raises(ValueError, match=re.escape(match)):
            export_from_json(doc)

    def test_field_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="run 1: field dim 1 != network dim 2"):
            ResNetExport(runs=((LIN2, 1, 0.1), (LIN, 1, 0.1)), source_T=0.2, dim=2)

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf, "0.125", None, True, False])
    def test_bad_delta_rejected(self, bad):
        with pytest.raises(ValueError, match=f"run 1: delta .* got {re.escape(repr(bad))}"):
            ResNetExport(runs=((LIN, 1, 0.1), (LIN, 1, bad)), source_T=0.2, dim=1)

    def test_meta_S_must_match_layer_count(self):
        doc = export_to_json(euler_discretize(Schedule(((LIN, 1.0),), 1), 8))
        doc["meta"]["S"] = 3
        with pytest.raises(ValueError, match="meta.S=3 but the runs hold 8 layers"):
            export_from_json(doc)

"""Grid targets, shrink maps, separation, transport, assembled pipeline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowmap.core import Schedule, flow_eval
from flowmap.families import (OutsideSign, WellFunction, field_from_terms_1d, generic_field,
                              relu_well_nd, sigmoid_smn)
from flowmap.highd import (PipelineError, ShrinkSpec, approximate_lp, build_contraction,
                           build_grid_target, separate_points, transport_points)
from flowmap.targets import TargetSpec, builtin_target_nd
from flowmap.tensor import tensor_transport
from flowmap.util import collision_counts
from helpers import shrink_map_1d

WELL2 = relu_well_nd(2)


def smooth_well(n):
    """Every component the coordinate mean of the smooth surrogate: no piece tables."""
    def evaluate(z):
        mean = sigmoid_smn(100, 10, z).mean(axis=-1, keepdims=True)
        return np.broadcast_to(mean, np.shape(z)).copy()

    label = f"smooth_nd({n})"
    return WellFunction(dim=n, field=generic_field(evaluate, n, 25.0, label),
                        zero_box=np.tile([[-1.0, 1.0]], (n, 1)),
                        outside_sign=OutsideSign(+1, +1), label=label)


class TestGridTarget:
    def test_identity_certificate(self):
        grid = build_grid_target(builtin_target_nd("identity", 2), 4, 2)
        # cell-center surrogate of the identity: L2 error = cell std
        assert grid.certified_error <= 0.25
        assert grid.values.shape == (16, 2)
        np.testing.assert_allclose(grid.values, (np.array(
            np.meshgrid(np.arange(4), np.arange(4), indexing="ij"))
            .reshape(2, -1).T + 0.5) / 4)

    def test_constant_target_exact(self):
        grid = build_grid_target(builtin_target_nd("const", 2), 3, 1)
        assert grid.certified_error <= 1e-12

    def test_non_unit_box_rejected(self):
        F = TargetSpec(fn=lambda x: x, n=2, m=2, domain=[[0, 2], [0, 1]])
        with pytest.raises(PipelineError):
            build_grid_target(F, 2, 1)


class TestShrink:
    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            ShrinkSpec(alpha=1.0, N=2, eps1=1e-3)

    def test_canonical_map_fixes_corners(self):
        h = shrink_map_1d(0.5, 4)
        corners = np.array([0.0, 0.25, 0.5, 0.75])
        np.testing.assert_allclose(h(corners), corners, atol=1e-15)
        assert h(np.array([0.1]))[0] == pytest.approx(0.0)  # inside the first flat
        assert h(np.array([1.0]))[0] == pytest.approx(1.0)

    def test_contraction_maps_cell_to_corner(self):
        spec = ShrinkSpec(alpha=0.5, N=2, eps1=1e-6)
        sched = build_contraction(spec, WELL2, n=2)
        out = flow_eval(sched, np.array([[0.2, 0.7]]))
        np.testing.assert_allclose(out, [[0.0, 0.5]], atol=1e-6)

    def test_contraction_fixes_corners(self):
        spec = ShrinkSpec(alpha=0.5, N=2, eps1=1e-6)
        sched = build_contraction(spec, WELL2, n=2)
        corners = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])
        out = flow_eval(sched, corners)
        assert float(np.max(np.abs(out - corners))) <= 1e-6

    @given(st.floats(0.05, 0.95), st.integers(1, 6), st.sampled_from([2, 3]),
           st.floats(1e-7, 1e-2), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_relu_contraction_is_one_tensor_step_per_1d_stage(self, alpha, N, n, eps1, seed):
        sched = build_contraction(ShrinkSpec(alpha=alpha, N=N, eps1=eps1), relu_well_nd(n), n=n)
        # The 1D contraction, one scalar stage per tensor step, is the ideal
        # staircase through (i/N, i/N) and ((i + alpha)/N, i/N + alpha beta/N)
        # at the per-coordinate budget.
        sched_1d = Schedule(tuple((field_from_terms_1d(f.pwl.terms), tau)
                                  for f, tau in sched.steps), 1)
        beta = min(0.25, 0.9 * eps1 / math.sqrt(n) * N / alpha)
        riser = (1.0 - alpha * beta) / (1.0 - alpha)
        i = np.arange(N)
        knots = np.append(np.column_stack([i, i + alpha]).ravel() / N, 1.0)
        vals = np.append(np.column_stack([i / N, i / N + alpha * beta / N]).ravel(), 1.0)
        xs = np.concatenate([knots, np.linspace(0.0, 1.0, 101)])
        # Roundoff: an image on a flat is off by about an ulp, which the
        # riser's stage then stretches by riser / beta.
        np.testing.assert_allclose(flow_eval(sched_1d, xs[:, None])[:, 0],
                                   np.interp(xs, knots, vals), rtol=0,
                                   atol=4 * np.finfo(float).eps * riser / beta)
        pts = np.random.default_rng(seed).uniform(0.0, 1.0, size=(64, n))
        out = flow_eval(sched, pts)
        for k in range(n):
            np.testing.assert_array_equal(out[:, k], flow_eval(sched_1d, pts[:, k:k + 1])[:, 0])

    def test_non_relu_contraction_rejected_up_front(self, monkeypatch):
        # No piece tables: rejected before the staircase or any field is built.
        def no_build(*args, **kwargs):
            raise AssertionError("contraction work started")

        monkeypatch.setattr("flowmap.highd.compile_pwl_map", no_build)
        monkeypatch.setattr("flowmap.highd.tensor_field", no_build)
        for well in (smooth_well(1), smooth_well(2)):
            with pytest.raises(ValueError, match="needs a ReLU-built well.*no piece tables"):
                build_contraction(ShrinkSpec(alpha=0.5, N=1, eps1=0.4), well)

    def test_contraction_gap_bound(self):
        spec = ShrinkSpec(alpha=0.6, N=3, eps1=1e-7)
        sched = build_contraction(spec, WELL2, n=2)
        h = shrink_map_1d(0.6, 3)
        grid = np.linspace(0, 1, 61)
        pts = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
        out = flow_eval(sched, pts)
        ideal = np.stack([h(pts[:, 0]), h(pts[:, 1])], axis=1)
        assert float(np.max(np.linalg.norm(out - ideal, axis=1))) <= 1e-7


class TestSeparation:
    def test_already_distinct_gives_identity(self):
        pts = np.array([[0.1, 0.2], [0.3, 0.4]])
        sched = separate_points(pts, WELL2, eps=0.1)
        assert len(sched) == 0

    def test_two_points_sharing_a_coordinate(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0]])
        sched, trace = separate_points(pts, WELL2, eps=0.05, return_trace=True)
        out = flow_eval(sched, pts)
        assert all(c == 0 for c in collision_counts(out))
        assert float(np.max(np.linalg.norm(out - pts, axis=1))) <= 0.05
        assert len(trace) == 1 and trace[0]["collisions_after"] == 0

    def test_four_points_on_a_line(self):
        pts = np.array([[0.5, 0.1], [0.5, 0.4], [0.5, 0.6], [0.5, 0.9]])
        sched, trace = separate_points(pts, WELL2, eps=0.05, return_trace=True)
        out = flow_eval(sched, pts)
        assert all(c == 0 for c in collision_counts(out))
        assert len(trace) <= 6  # at most C(4, 2) stages
        for rec in trace:
            assert rec["collisions_after"] < rec["collisions_before"]

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            separate_points(np.array([[0.1, 0.2], [0.1, 0.2]]), WELL2, eps=0.1)


class TestTransport:
    def test_targets_equal_sources(self):
        xs = np.array([[0.1, 0.6], [0.4, 0.2], [0.9, 0.8]])
        sched = transport_points(xs, xs, WELL2, eps=1e-6)
        assert all(t == 0.0 for _, t in sched.steps)
        np.testing.assert_array_equal(flow_eval(sched, xs), xs)

    def test_single_point_n_stages(self):
        xs = np.array([[0.3, 0.4]])
        ys = np.array([[0.9, -0.2]])
        sched = transport_points(xs, ys, WELL2, eps=1e-8)
        assert len(sched) == 2  # one stage per coordinate
        np.testing.assert_allclose(flow_eval(sched, xs), ys, atol=1e-8)

    def test_three_random_targets(self):
        rng = np.random.default_rng(5)
        xs = np.array([[0.1, 0.2], [0.4, 0.5], [0.8, 0.9]])
        ys = rng.uniform(-0.5, 1.5, size=(3, 2))
        sched = transport_points(xs, ys, WELL2, eps=1e-4)
        assert float(np.max(np.abs(flow_eval(sched, xs) - ys))) <= 1e-4

    def test_non_driven_coordinates_exactly_fixed(self):
        xs = np.array([[0.1, 0.2], [0.4, 0.5], [0.8, 0.9]])
        ys = np.array([[0.5, 0.1], [0.2, 0.9], [0.7, 0.3]])
        sched = transport_points(xs, ys, WELL2, eps=1e-6)
        pts = xs.copy()
        for fld, tau in sched.steps:
            nxt = fld.exact_flow(pts, tau)
            driven = int(np.flatnonzero(np.any(np.asarray(fld.params["V"]) != 0.0, axis=1))[0])
            other = 1 - driven
            np.testing.assert_array_equal(nxt[:, other], pts[:, other])
            pts = nxt

    def test_collision_targets_perturbed(self):
        xs = np.array([[0.1, 0.2], [0.4, 0.5], [0.8, 0.9]])
        ys = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])  # all equal
        sched = transport_points(xs, ys, WELL2, eps=0.01)
        out = flow_eval(sched, xs)
        assert float(np.max(np.linalg.norm(out - ys, axis=1))) <= 0.01

    def test_nondistinct_sources_rejected(self):
        xs = np.array([[0.1, 0.2], [0.1, 0.5]])
        with pytest.raises(ValueError):
            transport_points(xs, xs + 0.1, WELL2, eps=1e-4)


class TestPipeline:
    @pytest.mark.parametrize("name,p", [("identity", 2), ("flip", 1), ("const", 2)])
    def test_targets_meet_eps(self, name, p):
        F = builtin_target_nd(name, 2)
        sched, rep = approximate_lp(F, eps=0.5, p=p, well=WELL2, grid_N=4,
                                    seed=0, mc_samples=20_000)
        assert rep.measured_lp_error <= 0.5
        assert rep.grid_error <= 0.25
        assert rep.omega_check + rep.N ** (rep.n - rep.n / rep.p) * rep.eps1 <= 0.5 / 4 + 1e-12
        assert rep.leak_bound <= 0.5 / 4 + 1e-12
        assert rep.total_time_T == sched.total_time

    def test_orientation_reversing_target(self):
        # flip has negative Jacobian everywhere yet is approximable in L^p.
        F = builtin_target_nd("flip", 2)
        _, rep = approximate_lp(F, eps=0.5, p=1, well=WELL2, grid_N=4,
                                seed=0, mc_samples=20_000)
        assert rep.measured_lp_error <= 0.5

    def test_tensor_report_counts_separation_steps(self):
        F = builtin_target_nd("flip", 2)
        full, rep = approximate_lp(F, eps=0.5, p=1, well=WELL2, grid_N=4, seed=0,
                                   mc_samples=5_000, transport_backend="tensor")
        grid = build_grid_target(F, 4, p=1)
        psi, trace = tensor_transport(grid.corners, grid.values, eps=rep.eps1,
                                      return_trace=True)
        stages = rep.stages
        assert stages["separation"] == sum(rec["steps"] for rec in trace
                                           if rec["kind"] == "separate") > 0
        assert stages["separation"] + stages["transport"] == len(psi)
        assert len(full) == len(psi) + stages["contraction"]

    @pytest.mark.parametrize("name", ["identity", "flip", "const"])
    def test_three_dimensions(self, name):
        F = builtin_target_nd(name, 3)
        _, rep = approximate_lp(F, eps=0.8, p=2, well=relu_well_nd(3),
                                grid_N=3, seed=0, mc_samples=20_000)
        assert rep.measured_lp_error <= 0.8

    @pytest.mark.parametrize("backend", ["frozen", "tensor"])
    def test_non_relu_well_fails_before_the_grid(self, backend, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid stage reached")

        monkeypatch.setattr("flowmap.highd.build_grid_target", no_grid)
        with pytest.raises(PipelineError, match="require a ReLU-built well"):
            approximate_lp(builtin_target_nd("flip", 2), eps=0.5, p=1,
                           well=smooth_well(2), transport_backend=backend)

    def test_n1_rejected(self):
        F = TargetSpec(fn=lambda x: x, n=1, m=1, domain=[[0, 1]])
        with pytest.raises(ValueError):
            approximate_lp(F, eps=0.5, p=2, well=relu_well_nd(1))

    def test_determinism(self):
        F = builtin_target_nd("flip", 2)
        _, rep1 = approximate_lp(F, eps=0.5, p=1, well=WELL2, grid_N=4,
                                 seed=3, mc_samples=5_000)
        _, rep2 = approximate_lp(F, eps=0.5, p=1, well=WELL2, grid_N=4,
                                 seed=3, mc_samples=5_000)
        assert rep1.to_dict() == rep2.to_dict()

    def test_grid_infeasible_reports_binding_constraint(self):
        def wiggly(x):
            x = np.asarray(x, dtype=float)
            return np.sin(40 * x)

        F = TargetSpec(fn=wiggly, n=2, m=2, domain=[[0, 1], [0, 1]], name="wiggly")
        with pytest.raises(PipelineError, match="grid budget infeasible.*N <= 6 cap"):
            approximate_lp(F, eps=0.05, p=2, well=WELL2)

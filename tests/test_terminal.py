"""Terminal maps: preimage lifting, composed measurement and the JSON file."""

import json
import re

import numpy as np
import pytest

from flowmap.cli import main
from flowmap.core import Schedule, flow_eval
from flowmap.highd import approximate_lp
from flowmap.families import relu_well_nd
from flowmap.rates import translation_gadget
from flowmap.targets import TargetSpec, builtin_target_nd
from flowmap.terminal import CoveringError, TerminalMap, lift_targets
from flowmap.util import mc_lp_error


def _measure(g, sched, F, p, samples, seed):
    """Monte-Carlo L^p(K) error of g after the schedule's flow against F."""
    return mc_lp_error(lambda x: g(flow_eval(sched, x)), F.fn, F.domain, p, samples, seed)


class TestLiftTargets:
    def test_identity_map(self):
        g = TerminalMap(np.eye(3), np.zeros(3))
        vals = np.array([[0.1, 0.2, 0.3], [1.0, -1.0, 0.0]])
        np.testing.assert_array_equal(lift_targets(vals, g), vals)

    def test_coordinate_projection_min_norm(self):
        g = TerminalMap(np.array([[1.0, 0.0]]), np.zeros(1))
        z = lift_targets(np.array([[3.0]]), g)
        np.testing.assert_allclose(z, [[3.0, 0.0]], atol=1e-14)

    def test_random_full_rank_residuals(self):
        rng = np.random.default_rng(11)
        W = rng.normal(size=(2, 3))
        g = TerminalMap(W, rng.normal(size=2))
        vals = rng.normal(size=(10, 2))
        z = lift_targets(vals, g)
        np.testing.assert_allclose(g(z), vals, atol=1e-12)

    def test_covering_violation(self):
        W = np.array([[1.0, 0.0], [1.0, 0.0]])  # rank 1, outputs on the diagonal
        g = TerminalMap(W, np.zeros(2))
        with pytest.raises(CoveringError):
            lift_targets(np.array([[1.0, 2.0]]), g)


class TestComposeAndMeasure:
    def test_identity_everything_zero(self):
        g = TerminalMap(np.eye(2), np.zeros(2))
        F = builtin_target_nd("identity", 2)
        res = _measure(g, Schedule((), 2), F, p=2, samples=2_000, seed=0)
        assert res.value == 0.0 and res.stderr == 0.0

    def test_lipschitz_transports_schedule_gap(self):
        # two 1D schedules with a known sup gap delta on K
        g = TerminalMap(np.array([[2.0]]), np.array([0.5]))
        delta = 0.25
        s1 = Schedule((), 1)
        s2 = translation_gadget(delta, 0.01)
        F = TargetSpec(fn=lambda x: 2.0 * x + 0.5, n=1, m=1, domain=[[0.0, 1.0]])
        e1 = _measure(g, s1, F, p=2, samples=4_000, seed=1)
        e2 = _measure(g, s2, F, p=2, samples=4_000, seed=1)
        assert abs(e1.value - e2.value) <= g.lipschitz_bound * delta * (1 + 1e-6)

    def test_full_pipeline_with_scalar_regression_head(self):
        w = np.array([[0.8, -0.3]])
        g = TerminalMap(w, np.array([0.1]))

        def scalar_target(x):
            x = np.asarray(x, dtype=float)
            return (0.3 * x[..., :1] + 0.5 * x[..., 1:2] + 0.1)

        F = TargetSpec(fn=scalar_target, n=2, m=1, domain=[[0, 1], [0, 1]], name="affine1")
        sched, rep = approximate_lp(F, eps=0.5, p=2, well=relu_well_nd(2), g=g,
                                    grid_N=4, seed=0, mc_samples=20_000)
        assert rep.measured_lp_error <= 0.5
        res = _measure(g, sched, F, p=2, samples=20_000, seed=0)
        assert res.value == pytest.approx(rep.measured_lp_error, abs=1e-12)

    def test_dim_validation(self):
        g = TerminalMap(np.array([[1.0, 0.0]]), np.zeros(1))
        with pytest.raises(ValueError, match="values have dim 2, terminal map outputs 1"):
            lift_targets(np.zeros((3, 2)), g)
        with pytest.raises(ValueError, match="values have dim 2, terminal map outputs 1"):
            approximate_lp(builtin_target_nd("identity", 2), eps=0.5, p=2,
                           well=relu_well_nd(2), g=g, grid_N=2, mc_samples=1000)


GOOD = {"kind": "affine", "W": [[1.0, 0.0], [0.0, 1.0]], "c": [0.0, 0.0]}


def _doc(**changes):
    doc = json.loads(json.dumps(GOOD))
    doc.update(changes)
    return {k: v for k, v in doc.items() if v is not None}


BAD_DOCS = [
    (_doc(W=[["1", 0.0], [0.0, 1.0]]), "terminal map key 'W'[0][0] must be a number, got '1'"),
    (_doc(c=[0.0, True]), "terminal map key 'c'[1] must be a number, got True"),
    (_doc(W=[[1.0, 0.0], [float("nan"), 1.0]]), "terminal map W is not finite"),
    (_doc(c=[float("inf"), 0.0]), "terminal map c is not finite"),
    (_doc(c=None), "terminal map document lacks key 'c'"),
    (_doc(W=None), "terminal map document lacks key 'W'"),
    (_doc(kind="linear"), "terminal map key 'kind' must be 'affine', got 'linear'"),
    (_doc(W=[[1.0, 0.0], [1.0]]), "terminal map key 'W' rows differ in length: [2, 1]"),
    (_doc(W=[1.0, 0.0]), "terminal map key 'W'[0] must be a list, got float"),
    (_doc(c={"a": 1.0}), "terminal map key 'c' must be a list, got dict"),
    ([GOOD], "terminal map document must be an object, got list"),
]
BAD_IDS = ["str_entry", "bool_entry", "nan_W", "inf_c", "no_c", "no_W", "kind", "ragged_W",
           "flat_W", "dict_c", "doc_list"]


class TestFromJson:
    def test_good_documents_load(self):
        g = TerminalMap.from_json(GOOD)
        np.testing.assert_array_equal(g.W, np.eye(2))
        assert g.c.tolist() == [0.0, 0.0]
        assert TerminalMap.from_json(_doc(kind=None, W=[[2, 0]], c=[1])).W.tolist() == [[2.0, 0.0]]

    @pytest.mark.parametrize("doc, match", BAD_DOCS, ids=BAD_IDS)
    def test_bad_documents_name_the_key(self, doc, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            TerminalMap.from_json(json.loads(json.dumps(doc)))

    def test_constructor_rejects_non_finite(self):
        with pytest.raises(ValueError, match="terminal map W is not finite"):
            TerminalMap(np.array([[np.inf]]), np.zeros(1))
        with pytest.raises(ValueError, match="terminal map c is not finite"):
            TerminalMap(np.eye(1), np.array([np.nan]))


class TestApproxndTerminalFile:
    ARGS = ["--target", "builtin:flip", "--n", "2", "--p", "1", "--eps", "0.5",
            "--grid-N", "4", "--mc-samples", "2000"]

    @pytest.mark.parametrize("doc, match", BAD_DOCS, ids=BAD_IDS)
    def test_bad_file_exits_1_naming_the_key(self, tmp_path, capsys, doc, match):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))  # NaN and Infinity literals, as json reads them
        rc = main(["approxnd", *self.ARGS, "--terminal", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ValueError" and match in err["message"]

    def test_good_file_runs(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(GOOD))
        assert main(["approxnd", *self.ARGS, "--terminal", str(path),
                     "--out", str(tmp_path / "o")]) == 0

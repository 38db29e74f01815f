"""CLI subcommands: artifacts, exit codes, determinism, config precedence."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowmap.cli import main
from flowmap.core import Schedule, flow_eval, schedule_from_json, schedule_to_json
from flowmap.families import field_from_terms_1d
from flowmap.oned import approx_increasing
from flowmap.targets import builtin_target_1d
from flowmap.tensor import tensor_field


def read_json(path):
    return json.loads(Path(path).read_text())


def test_approx1d_artifacts(tmp_path):
    out = tmp_path / "a1"
    rc = main(["approx1d", "--target", "builtin:smooth1", "--eps", "1e-1",
               "--out", str(out)])
    assert rc == 0
    rep = read_json(out / "report.json")
    assert rep["measured_sup_error"] <= 1e-1
    # The reported error covers the midpoints of the construction's own nodes.
    nodes = approx_increasing(builtin_target_1d("smooth1"), 1e-1).nodes
    assert len(nodes) == rep["nodes"]
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    got = flow_eval(schedule_from_json(read_json(out / "schedule.json")), mids[:, None])[:, 0]
    assert rep["measured_sup_error"] >= np.max(np.abs(got - builtin_target_1d("smooth1").fn(mids)))
    assert (out / "config.json").exists()
    assert "wall_time" in read_json(out / "timing.json")
    assert "wall_time" not in rep


def test_approx1d_has_no_well_option(tmp_path, capsys):
    # The compiled map is built from its own ReLU stages: no well to choose.
    with pytest.raises(SystemExit) as exc:
        main(["approx1d", "--target", "builtin:smooth1", "--eps", "1e-1",
              "--well", "relu", "--out", str(tmp_path / "a1")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --well" in capsys.readouterr().err


def test_rate_csv(tmp_path):
    out = tmp_path / "rate"
    rc = main(["rate", "--target", "builtin:pwl4",
               "--budgets", "0.25,0.5,0.75,1.0", "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "T,gamma,bound,measured"
    assert len(lines) == 5
    rep = read_json(out / "report.json")
    assert all(r["measured"] <= r["bound"] * 1.001 + 1e-12 for r in rep["rows"])


def test_rate_exits_1_when_a_row_misses_its_bound(tmp_path, monkeypatch):
    row = {"T": 0.5, "gamma": 0.1, "bound": 0.01, "measured": 0.02}
    monkeypatch.setattr("flowmap.cli.rate_sweep", lambda target, budgets: [row])
    out = tmp_path / "rate"
    rc = main(["rate", "--target", "builtin:pwl4", "--budgets", "0.5", "--out", str(out)])
    assert rc == 1
    assert read_json(out / "report.json")["passed"] is False


def test_approxnd_and_verify(tmp_path):
    out = tmp_path / "nd"
    rc = main(["approxnd", "--target", "builtin:identity", "--n", "2", "--p", "2",
               "--eps", "0.5", "--grid-N", "4", "--mc-samples", "20000",
               "--out", str(out)])
    assert rc == 0
    rep = read_json(out / "report.json")
    assert rep["measured_lp_error"] <= 0.5
    vout = tmp_path / "verify"
    rc = main(["verify", "--schedule", str(out / "schedule.json"),
               "--target", "builtin:identity", "--p", "2",
               "--mc-samples", "20000", "--out", str(vout)])
    assert rc == 0
    vrep = read_json(vout / "report.json")
    assert vrep["measured_lp_error"] == pytest.approx(rep["measured_lp_error"], abs=1e-12)
    assert all(r["positive"] for r in vrep["jacobian_signs"])


@pytest.mark.parametrize("flag, value, match", [
    ("--p", "nan", "p must be a finite real number >= 1, got nan"),
    ("--p", "-1", "p must be a finite real number >= 1, got -1.0"),
    ("--p", "0", "p must be a finite real number >= 1, got 0.0"),
    ("--mc-samples", "0", "samples must be an integer >= 1, got 0"),
])
def test_verify_and_approxnd_reject_bad_p_and_samples(tmp_path, capsys, flag, value, match):
    # --p nan once exited 0 with an error of 0.0, --p -1 with a negative
    # stderr, and --p 0 raised a bare ZeroDivisionError.
    field = field_from_terms_1d([(1.0, 1.0, -0.5)])
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(schedule_to_json(Schedule(((tensor_field(field, 2), 0.5),), 2))))
    for argv in (["verify", "--schedule", str(path)],
                 ["approxnd", "--eps", "0.5", "--grid-N", "2"]):
        rc = main(argv + ["--target", "builtin:identity", flag, value,
                          "--out", str(tmp_path / argv[0])])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "ValueError", "message": match}


def test_tensor_backend(tmp_path):
    out = tmp_path / "tn"
    rc = main(["tensor", "--target", "builtin:const", "--n", "2", "--p", "1",
               "--eps", "0.6", "--grid-N", "3", "--mc-samples", "10000",
               "--out", str(out)])
    assert rc == 0
    assert read_json(out / "report.json")["measured_lp_error"] <= 0.6


def test_tensor_backend_separates_grid_corners(tmp_path):
    out = tmp_path / "tn3"
    rc = main(["tensor", "--target", "builtin:identity", "--n", "3", "--grid-N", "3",
               "--eps", "0.5", "--out", str(out)])
    assert rc == 0
    assert read_json(out / "report.json")["stages"]["separation"] > 0


def test_discretize_artifacts(tmp_path):
    a1 = tmp_path / "a1"
    main(["approx1d", "--target", "builtin:quad", "--eps", "1e-1", "--out", str(a1)])
    out = tmp_path / "disc"
    rc = main(["discretize", "--schedule", str(a1 / "schedule.json"),
               "--layers", "4096", "--out", str(out)])
    assert rc == 0
    rep = read_json(out / "report.json")
    doc = read_json(out / "resnet.json")
    assert doc["meta"]["S"] == 4096
    assert sum(run["layers"] for run in doc["runs"]) == 4096


def test_verify_1d_sees_error_between_nodes(tmp_path):
    # Target equal to x on the 4096-piece node set and to x + delta halfway
    # between nodes: a probe grid made of the nodes alone reports about 0.
    delta = 1e-4
    xs = np.arange(8193) / 8192.0
    ys = xs + delta * (np.arange(8193) % 2)
    csv_path = tmp_path / "bump.csv"
    csv_path.write_text("x,y\n" + "\n".join(f"{float(x)!r},{float(y)!r}" for x, y in zip(xs, ys)))
    sched_path = tmp_path / "identity.json"
    sched_path.write_text(json.dumps({"dim": 1, "steps": []}))
    out = tmp_path / "v"
    rc = main(["verify", "--schedule", str(sched_path), "--target", f"csv:{csv_path}",
               "--out", str(out)])
    assert rc == 0
    rep = read_json(out / "report.json")
    assert rep["measured_sup_error"] >= delta / 2
    assert rep["monotone"]


def test_error_json_on_bad_input(tmp_path, capsys):
    rc = main(["approx1d", "--target", "builtin:dec1", "--eps", "0.1",
               "--out", str(tmp_path / "bad")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "NotIncreasingError"


def _set(*path_and_value):
    *path, value = path_and_value

    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return mutate


def _drop(*path):
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return mutate


@pytest.mark.parametrize("mutate, match", [
    (_set("steps", 0, "params", "b", 0, float("nan")),
     "relu term 0 is not finite: v = [-1.0], w = [1.0], b = nan"),
    (_set("steps", 2, "params", "W", 0, 0, float("inf")), "relu term 0 is not finite"),
    (_set("steps", 1, "params", "V", 0, 0, float("-inf")), "relu term 0 is not finite"),
    (_set("steps", 0, "tau", "1"), "step duration must be a finite nonnegative number, got '1'"),
    (_set("steps", 0, "tau", True), "step duration must be a finite nonnegative number, got True"),
    (_set("steps", 0, "tau", float("nan")), "got nan"),
    (_set("steps", 0, "tau", float("inf")), "got inf"),
    (_set("steps", 0, "tau", -0.5), "got -0.5"),
    (_drop("steps", 0, "tau"), "lacks key 'tau'"),
    (_drop("steps", 1, "family_tag"), "lack key 'family_tag'"),
    (_drop("steps", 1, "params", "b"), "lack key 'b'"),
    (_drop("dim"), "lacks key 'dim'"),
    (_set("dim", "1"), "schedule dim must be an integer >= 1, got '1'"),
    (_set("dim", True), "schedule dim must be an integer >= 1, got True"),
    (_set("steps", 3), "schedule key 'steps' must be a list, got int"),
    (_set("steps", 1, 3), "field document must be an object, got int"),
    (_set("steps", 0, "params", [1.0]), "field key 'params' must be an object, got list"),
], ids=["nan_b", "inf_w", "neg_inf_v", "str_tau", "bool_tau", "nan_tau", "inf_tau",
        "negative_tau", "no_tau", "no_family_tag", "no_b", "no_dim", "str_dim", "bool_dim",
        "int_steps", "int_step", "list_params"])
def test_malformed_schedule_rejected_by_library_and_verify(tmp_path, capsys, mutate, match):
    # A NaN kink once dropped its term from the exact kernel: verify exited 0
    # with a sup error of 3.0 on this schedule.
    doc = json.loads(json.dumps(schedule_to_json(
        approx_increasing(builtin_target_1d("pwl4"), 1e-2).schedule)))
    mutate(doc)
    with pytest.raises(ValueError, match=re.escape(match)):
        schedule_from_json(doc)
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity literals, as json reads them
    rc = main(["verify", "--schedule", str(path), "--target", "builtin:pwl4",
               "--out", str(tmp_path / "v")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ValueError" and match in err["message"]


def test_config_file_defaults_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"target": "builtin:identity", "eps": 0.05}))
    out1 = tmp_path / "c1"
    assert main(["approx1d", "--config", str(cfg), "--out", str(out1)]) == 0
    assert read_json(out1 / "report.json")["eps"] == 0.05
    out2 = tmp_path / "c2"
    assert main(["approx1d", "--config", str(cfg), "--eps", "0.2",
                 "--out", str(out2)]) == 0
    assert read_json(out2 / "report.json")["eps"] == 0.2


def test_selftest_reports_deterministic(selftest_runs):
    assert [rc for rc, _ in selftest_runs] == [0, 0]
    assert selftest_runs[0][1] == selftest_runs[1][1]


def test_python_m_flowmap_runs_the_cli():
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "flowmap", "--help"], cwd=repo,
                          env=dict(os.environ, PYTHONPATH="src"), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: flowmap")


_COLD_START = """
import json, sys
import numpy as np
import flowmap, flowmap.cli
at_import = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
from flowmap.core import IntegratorConfig, Schedule, flow_eval
from flowmap.families import field_from_terms_1d
from flowmap.targets import target_1d_from_csv, target_nd_from_csv
lin = field_from_terms_1d([(1.0, 1.0, 0.0), (-1.0, -1.0, 0.0)])  # z' = z
x = np.array([[-0.5], [0.25], [1.0]])
sched = Schedule(((lin, 0.5), (lin, 0.25)), 1)
rk45 = flow_eval(sched, x, IntegratorConfig(method="rk45_adaptive"))
t1, tn = target_1d_from_csv(sys.argv[1]), target_nd_from_csv(sys.argv[2], 2)
used = [m in sys.modules for m in ("scipy.integrate", "scipy.interpolate", "scipy.spatial")]
print(json.dumps({"at_import": at_import, "used": used, "rk45": rk45.ravel().tolist(),
                  "t1": t1(np.array([0.0, 0.5, 1.0])).tolist(), "t1_increasing": t1.increasing,
                  "tn": tn(np.array([[0.1, 0.1], [0.9, 0.8]])).tolist()}))
"""


def test_cold_start_loads_no_scipy_until_used(tmp_path):
    # A fresh interpreter: import flowmap without scipy, then take the RK45
    # path and both CSV targets, which import it on their first call.
    (tmp_path / "t1.csv").write_text("x,y\n0,0\n0.5,0.25\n1,1\n")
    (tmp_path / "tn.csv").write_text("0,0,10\n1,1,20\n")
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _COLD_START, str(tmp_path / "t1.csv"),
                           str(tmp_path / "tn.csv")], cwd=repo,
                          env=dict(os.environ, PYTHONPATH="src"), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["at_import"] == [] and out["used"] == [True, True, True]
    np.testing.assert_allclose(out["rk45"], np.array([-0.5, 0.25, 1.0]) * np.exp(0.75), rtol=1e-8)
    np.testing.assert_allclose(out["t1"], [0.0, 0.25, 1.0], atol=1e-15)
    assert out["t1_increasing"]
    assert out["tn"] == [[10.0], [20.0]]

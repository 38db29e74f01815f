"""Tests of the benchmark itself.

Run with ``python3 -m pytest perfbench/selfcheck.py`` from the repository
root.  The file name keeps these slow tests (about two minutes) out of the
default ``pytest`` collection of the library's own suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import flowmap  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import PARTS, WORKLOADS, Phases, same  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECOND_SEED = 90210


def _flowmap_bindings():
    """Every attribute the tracer may replace, as {(owner, name): object}."""
    owners = [m for n, m in sys.modules.items()
              if m is not None and (n == "flowmap" or n.startswith("flowmap."))]
    owners += [flowmap.pwl.PwlField, flowmap.families.WellFunction]
    return {(owner, key): value for owner in owners for key, value in vars(owner).items()}


def _outputs_equal(a, b):
    return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)


def test_traced_run_restores_attributes_and_matches_untraced():
    wl = PARTS["rate_sweep"]
    inputs = wl.setup(SECOND_SEED)
    before = _flowmap_bindings()
    untraced = wl.run(inputs, Phases(), False)
    with tracing.Tracer() as tracer:
        assert len(tracer.patched) >= len(tracing.SPECS)
        assert flowmap.rate_sweep is not before[(flowmap, "rate_sweep")]
        traced = wl.run(inputs, Phases(), False)
    after = _flowmap_bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
    assert tracer.patched == []
    assert _outputs_equal(traced.outputs, untraced.outputs)
    metrics = tracer.layer_metrics()
    assert metrics["rates.budgeted_schedule.calls"][0] == 5 * len(inputs["targets"])
    assert metrics["pwl.flow_scalar.calls"][0] > 0
    # Spans nest: every parent id names a span that encloses its child.
    by_id = {s[0]: s for s in tracer.spans}
    for span_id, _, start, end, parent in tracer.spans:
        if parent >= 0:
            p = by_id[parent]
            assert p[2] <= start <= end <= p[3]


def _last_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checks_pass_on_a_second_seed_traced(workload, capsys):
    assert run.main(["--workload", workload, "--seed", str(SECOND_SEED),
                     "--seconds", "0", "--trace", "1"]) == 0
    result = _last_json(capsys)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]


def test_end_to_end_metrics_match_spec(capsys):
    assert run.main(["--workload", "kernels", "--seed", str(SECOND_SEED),
                     "--seconds", "0", "--trace", "0"]) == 0
    result = _last_json(capsys)
    assert result["correct"] is True
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "kernels",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

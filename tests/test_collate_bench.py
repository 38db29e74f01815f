"""scripts/collate_bench.py on synthetic perfbench result files."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "collate_bench.py"
SEEDS, TRACE_SEED = (5, 6), 9

# side -> workload -> per-seed (eval_s, failed, attempted); steps is the same everywhere.
RUNS = {
    "parent": {"fields": [(2.0, 1, 7), (4.0, 0, 8)], "kernels": [(1.0, 0, 5), (1.0, 0, 5)]},
    "change": {"fields": [(0.5, 0, 9), (1.5, 0, 9)], "kernels": [(1.2, 0, 5), (0.8, 2, 5)]},
}
# side -> per-seed raw set-up timings (import_s, setup_inputs_s), as run.py
# writes them: four imports and five input set-ups per run.
RAW = {
    "parent": [([0.9, 1.1, 0.8, 1.0], [0.01, 0.02, 0.03, 0.02, 0.01]),
               ([0.7, 0.7, 0.8, 0.9], [0.02, 0.02, 0.02, 0.02, 0.02])],
    "change": [([0.2, 0.3, 0.2, 0.2], [0.01, 0.01, 0.01, 0.02, 0.01]),
               ([0.3, 0.3, 0.4, 0.2], [0.03, 0.02, 0.03, 0.02, 0.01])],
}
TRACED_NS = {"parent": 30.0, "change": 8.0}
SRC_LINES = {"parent": 100, "change": 120}
BENCHMARK = {"end_to_end": [{"name": "eval_s", "unit": "s", "better": "lower", "bound": 0.1},
                            {"name": "steps", "unit": "count", "better": "lower", "bound": 0.05}]}


def _provenance(side, seed):
    return {"git_sha": None, "src_sha256": f"{side}-sha", "src_lines": SRC_LINES[side],
            "nproc": 2, "cpu_model": "test cpu", "python": "3.x", "numpy": "n", "scipy": "s",
            "seed": seed}


def _write_side(out, side):
    out.mkdir(parents=True)
    for w, runs in RUNS[side].items():
        for seed, (eval_s, failed, attempted), (imports, inputs) in zip(SEEDS, runs, RAW[side]):
            doc = {"workload": w, "trace": 0, "provenance": _provenance(side, seed),
                   "failed": failed, "attempted": attempted,
                   "end_to_end": {"eval_s": {"value": eval_s, "samples": 3, "unit": "s"},
                                  "steps": {"value": 40, "samples": 1, "unit": "count"}},
                   "raw": {"import_s": imports, "setup_inputs_s": inputs}}
            (out / f"{w}-seed{seed}-trace0.json").write_text(json.dumps(doc))
        traced = {"workload": w, "trace": 1, "provenance": _provenance(side, TRACE_SEED),
                  "per_layer": {"discretize.resnet_forward.ns_per_point_layer":
                                {"value": TRACED_NS[side], "unit": "ns"}}}
        (out / f"{w}-seed{TRACE_SEED}-trace1.json").write_text(json.dumps(traced))


@pytest.fixture(scope="module")
def collate_bench():
    spec = importlib.util.spec_from_file_location("collate_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_collates_medians_pairs_failures_and_provenance(collate_bench, tmp_path, monkeypatch):
    for side in RUNS:
        _write_side(tmp_path / side, side)
    out = tmp_path / "BENCH.json"
    spec = tmp_path / "BENCHMARK.json"
    spec.write_text(json.dumps(BENCHMARK))
    monkeypatch.setattr(collate_bench, "BENCHMARK", spec)
    monkeypatch.setattr(sys, "argv", [
        str(SCRIPT), "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--seeds", f"{SEEDS[0]}-{SEEDS[-1]}", "--trace-seed", str(TRACE_SEED),
        "--parent-sha", "aaa", "--change-sha", "bbb", "--method", "synthetic", "--out", str(out)])
    collate_bench.main()
    doc = json.loads(out.read_text())

    assert doc["seeds"] == list(SEEDS) and doc["trace_seed"] == TRACE_SEED
    assert doc["git_sha"] == {"parent": "aaa", "change": "bbb"} and doc["method"] == "synthetic"
    assert doc["src_lines"] == {"parent": 100, "change": 120, "net": 20}
    assert doc["src_sha256"] == {"parent": "parent-sha", "change": "change-sha"}
    assert doc["machine"]["cpu_model"] == "test cpu"

    fields = doc["workloads"]["fields"]
    ev = fields["end_to_end"]["eval_s"]
    assert ev["unit"] == "s"
    # np.percentile interpolates linearly: [2, 4] -> q1 2.5, median 3, q3 3.5.
    assert ev["parent"] == {"median": 3.0, "q1": 2.5, "q3": 3.5, "iqr": 1.0, "runs": [2.0, 4.0]}
    assert ev["change"] == {"median": 1.0, "q1": 0.75, "q3": 1.25, "iqr": 0.5, "runs": [0.5, 1.5]}
    assert ev["median_change_frac"] == pytest.approx(-2.0 / 3.0)
    assert (ev["change_lower_pairs"], ev["change_higher_pairs"]) == (2, 0)
    # Pairs 0.5/2 - 1 = -0.75 and 1.5/4 - 1 = -0.625.
    assert ev["median_pair_change_frac"] == pytest.approx(-0.6875)
    assert ev["median_gap_exceeds_parent_iqr"] is True
    assert ev["verdict"] == "improved"
    steps = fields["end_to_end"]["steps"]
    assert steps["verdict"] == "no_worse"
    assert steps["median_change_frac"] == 0.0 and steps["median_pair_change_frac"] == 0.0
    assert (steps["change_lower_pairs"], steps["change_higher_pairs"]) == (0, 0)
    assert steps["median_gap_exceeds_parent_iqr"] is False
    assert fields["failed"] == {"parent": [1, 15], "change": [0, 18]}
    # Per run the median of its raw timings: imports [0.95, 0.75] and
    # [0.2, 0.3], input set-ups [0.02, 0.02] and [0.01, 0.02].
    parts = fields["setup_parts"]
    assert parts["import_s"]["parent"] == pytest.approx(
        {"median": 0.85, "q1": 0.8, "q3": 0.9, "iqr": 0.1, "runs": [0.95, 0.75]})
    assert parts["import_s"]["change"] == pytest.approx(
        {"median": 0.25, "q1": 0.225, "q3": 0.275, "iqr": 0.05, "runs": [0.2, 0.3]})
    assert parts["setup_inputs_s"]["parent"] == pytest.approx(
        {"median": 0.02, "q1": 0.02, "q3": 0.02, "iqr": 0.0, "runs": [0.02, 0.02]})
    assert parts["setup_inputs_s"]["change"]["runs"] == pytest.approx([0.01, 0.02])
    assert fields["per_layer_traced"] == {"discretize.resnet_forward.ns_per_point_layer":
                                          {"unit": "ns", "parent": 30.0, "change": 8.0}}

    kernels = doc["workloads"]["kernels"]
    ev = kernels["end_to_end"]["eval_s"]
    assert (ev["change_lower_pairs"], ev["change_higher_pairs"]) == (1, 1)
    # Pairs +0.2 and -0.2: the median pair change is 0 while the medians agree.
    assert ev["median_pair_change_frac"] == pytest.approx(0.0, abs=1e-12)
    assert ev["median_change_frac"] == 0.0
    assert ev["parent"]["iqr"] == 0.0 and ev["median_gap_exceeds_parent_iqr"] is False
    # The change's IQR over its median, 0.2, is wider than the bound 0.1.
    assert ev["verdict"] == "unresolved"
    assert kernels["failed"] == {"parent": [0, 10], "change": [2, 10]}


@pytest.mark.parametrize("parent, change, better, bound, expected", [
    # Lower in 9 of 10 pairs, medians 1.0 apart against a parent IQR of 0.5.
    ([10.0] * 5 + [10.5] * 5, [9.0] * 9 + [11.0], "lower", 0.2, "improved"),
    # Better in only 8 of 10 pairs: not a claimable gain, and tight enough to settle.
    ([10.0] * 10, [9.0] * 8 + [10.0] * 2, "lower", 0.2, "no_worse"),
    # Median 30% above the parent's with a 20% bound.
    ([10.0] * 10, [13.0] * 10, "lower", 0.2, "worse"),
    # The parent's IQR is 40% of its median, wider than the bound.
    ([8.0, 8.0, 12.0, 12.0], [10.0, 10.0, 10.0, 10.0], "lower", 0.2, "unresolved"),
    # Just as wide, but every change run beats every parent run.
    ([8.0, 8.0, 12.0, 12.0], [7.0, 7.0, 7.5, 7.5], "lower", 0.2, "no_worse"),
    # For a higher-is-better metric a lower change is the worse one.
    ([10.0] * 10, [7.0] * 10, "higher", 0.2, "worse"),
    ([10.0] * 10, [13.0] * 10, "higher", 0.2, "improved"),
])
def test_verdict(collate_bench, parent, change, better, bound, expected):
    assert collate_bench.verdict(parent, change, better, bound) == expected

"""Collate the perfbench result files of a parent and a change into one JSON file.

    python3 scripts/collate_bench.py --parent P/perfbench/out --change C/perfbench/out \
        --seeds 101-110 --trace-seed 1 --parent-sha SHA --change-sha SHA --out BENCH_6.json

P and C are checkouts of the parent and the change.  In each, every seed was
run with ``perfbench/run.py --workload W --seed S --seconds 40 --trace 0`` for
both workloads, and the trace seed with ``--trace 1``.  The output holds, per
workload and end-to-end metric, the median, quartiles and IQR on each side,
the relative change of the medians, the median over seeds of each pair's
relative change, and the number of seeds on which the change read lower or
higher; a verdict (see ``verdict``) from the metric's ``better`` and
``bound`` in ``BENCHMARK.json``; the median, quartiles and IQR of the two
parts of ``setup_s`` (each run's median fresh-interpreter import and median
input set-up); the traced per-layer metrics of both sides; failures; and the
provenance (shas, net ``src/`` lines, machine) that the runs record.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

WORKLOADS = ("fields", "kernels")
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _load(out_dir: Path, workload: str, seed: int, trace: int) -> dict:
    return json.loads((out_dir / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def _stats(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1),
            "runs": [float(v) for v in values]}


def verdict(parent, change, better: str, bound: float) -> str:
    """One metric's verdict over paired runs, ``bound`` a fraction of the parent median.

    ``improved``: the change is better in at least 9/10 of the pairs (ties
    count for neither) and the medians differ by more than the parent's IQR.
    ``worse``: the change's median is worse by more than the bound.
    ``unresolved``: the IQR over the median of either side is wider than the
    bound, and not every change run beats every parent run.  ``no_worse``:
    otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    p, c = sign * np.asarray(parent, dtype=float), sign * np.asarray(change, dtype=float)
    ps, cs = _stats(p), _stats(c)
    if np.sum(c < p) >= 0.9 * len(p) and ps["median"] - cs["median"] > ps["iqr"]:
        return "improved"
    if cs["median"] - ps["median"] > bound * abs(ps["median"]):
        return "worse"
    wide = any(side["iqr"] > bound * abs(side["median"]) for side in (ps, cs))
    if wide and not c.max() < p.min():
        return "unresolved"
    return "no_worse"


def collate(parent: Path, change: Path, seeds: list, trace_seed: int, spec: dict) -> dict:
    declared = {m["name"]: m for m in spec["end_to_end"]}
    out = {}
    for w in WORKLOADS:
        runs = {side: [_load(d, w, s, 0) for s in seeds]
                for side, d in (("parent", parent), ("change", change))}
        metrics = {}
        for name, first in runs["parent"][0]["end_to_end"].items():
            vals = {side: [r["end_to_end"][name]["value"] for r in rs] for side, rs in runs.items()}
            p, c = _stats(vals["parent"]), _stats(vals["change"])
            metrics[name] = {
                "unit": first["unit"], "parent": p, "change": c,
                "median_change_frac": (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0,
                "change_lower_pairs": sum(b < a for a, b in zip(vals["parent"], vals["change"])),
                "change_higher_pairs": sum(b > a for a, b in zip(vals["parent"], vals["change"])),
                "median_pair_change_frac": float(np.median(
                    [(b - a) / a if a else 0.0 for a, b in zip(vals["parent"], vals["change"])])),
                "median_gap_exceeds_parent_iqr": abs(c["median"] - p["median"]) > p["iqr"],
                "verdict": verdict(vals["parent"], vals["change"], declared[name]["better"],
                                   declared[name]["bound"]),
            }
        traced = {side: _load(d, w, trace_seed, 1) for side, d in (("parent", parent), ("change", change))}
        out[w] = {
            "end_to_end": metrics,
            "setup_parts": {part: {side: _stats([np.median(r["raw"][part]) for r in rs])
                                   for side, rs in runs.items()}
                            for part in ("import_s", "setup_inputs_s")},
            "failed": {side: [sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)]
                       for side, rs in runs.items()},
            "per_layer_traced": {name: {"unit": m["unit"], "parent": m["value"],
                                        "change": traced["change"]["per_layer"][name]["value"]}
                                 for name, m in traced["parent"]["per_layer"].items()},
        }
    prov = {side: _load(d, WORKLOADS[0], seeds[0], 0)["provenance"]
            for side, d in (("parent", parent), ("change", change))}
    machine = {k: prov["change"][k] for k in ("nproc", "cpu_model", "python", "numpy", "scipy")}
    return {"workloads": out, "machine": machine,
            "src_lines": {side: p["src_lines"] for side, p in prov.items()},
            "src_sha256": {side: p["src_sha256"] for side, p in prov.items()}}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seeds", required=True, help="first-last seed of the timed pairs")
    ap.add_argument("--trace-seed", type=int, required=True)
    ap.add_argument("--parent-sha", required=True)
    ap.add_argument("--change-sha", required=True)
    ap.add_argument("--method", default="", help="how the runs were made, recorded as given")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    seeds = _seeds(args.seeds)
    spec = json.loads(BENCHMARK.read_text())
    doc = collate(args.parent, args.change, seeds, args.trace_seed, spec)
    doc = {"git_sha": {"parent": args.parent_sha, "change": args.change_sha},
           "seeds": seeds, "trace_seed": args.trace_seed, "method": args.method, **doc}
    doc["src_lines"]["net"] = doc["src_lines"]["change"] - doc["src_lines"]["parent"]
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

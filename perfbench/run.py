"""Run one flowmap benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
One process is one closed-loop client: set-up (repeated, median reported),
one untimed warm-up run whose outputs are fully checked and kept as the
reference, then timed runs back to back for ``--seconds`` seconds, each
checked and compared bit for bit with the reference.  Run as a script, the
runner first re-executes itself with ``PYTHONHASHSEED=0``, so that string
hashing is the same in every process.  With ``--trace 1`` one
more run is made under the tracer (see ``tracing.py``) and the per-layer
metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file with
provenance goes to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
# Fresh-interpreter imports timed per process: half before the timed runs and
# half after.  The machine's speed drifts over stretches of 10 s to minutes,
# and imports back to back would all fall in one of them.
IMPORT_REPEATS = 4
# The load model is single-threaded: flowmap's Monte-Carlo pool and the BLAS
# pools are pinned to one worker.  The BLAS variables must be set before
# numpy is imported.
THREAD_ENV = ("FLOWMAP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import flowmap\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import flowmap (numpy, scipy included)."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed, threads_seen) -> dict:
    import numpy
    import scipy

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "FLOWMAP_THREADS_seen": threads_seen,
        "FLOWMAP_THREADS_used": os.environ["FLOWMAP_THREADS"],
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "seed": seed,
    }


@dataclass
class Sample:
    """One run: wall time, per-phase seconds, outcome and check results."""

    run_s: float
    phases: dict
    outcome: object
    checks: dict


class Ledger:
    """Operations attempted and failed.

    Each run is one operation, which fails if the run raises; each check
    made on a run's outputs is one more.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_names = []

    def run(self, workload, inputs, reference, label):
        from workloads import Phases, same

        self.attempted += 1
        # Start every run from the same collector state, so that when the
        # cyclic collector runs does not depend on what earlier runs left.
        gc.collect()
        phases = Phases()
        t0 = time.perf_counter()
        try:
            outcome = workload.run(inputs, phases, reference is None)
        except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
            self.failed += 1
            self.failed_names.append(f"{label}: raised")
            traceback.print_exc(file=sys.stderr)
            return None
        run_s = time.perf_counter() - t0
        checks = dict(outcome.checks)
        if reference is not None:
            ref = reference.outcome.outputs
            checks["outputs_match_reference"] = (
                outcome.outputs.keys() == ref.keys()
                and all(same(outcome.outputs[k], ref[k]) for k in ref))
        self.attempted += len(checks)
        for name, ok in checks.items():
            if not ok:
                self.failed += 1
                self.failed_names.append(f"{label}: {name}")
        if reference is not None:
            # Keep only the reference's outputs, so that memory does not grow
            # with the number of runs that fit in the measured time.
            outcome.outputs = None
        return Sample(run_s, dict(phases.seconds), outcome, checks)


def median_of(values):
    return statistics.median(values), len(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flowmap" / "__init__.py").is_file():
        print(f"perfbench: no flowmap package under {SRC}", file=sys.stderr)
        return 2
    threads_seen = os.environ.get("FLOWMAP_THREADS")
    for var in THREAD_ENV:
        os.environ[var] = "1"

    # The first import is not timed: it fills the file cache and writes the
    # bytecode of a fresh checkout, which later processes do not pay again.
    import_seconds()
    import_s = [import_seconds() for _ in range(IMPORT_REPEATS // 2)]
    sys.path.insert(0, str(SRC))
    import flowmap

    if not Path(flowmap.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: flowmap imported from {flowmap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed)
        setup_s.append(time.perf_counter() - t0)

    ledger = Ledger()
    reference = ledger.run(workload, inputs, None, "warm-up")
    if reference is None:
        print("perfbench: the warm-up run raised; no result", file=sys.stderr)
        return 1

    # What set-up and the warm-up left alive stays alive: move it out of the
    # collector's generations, so that collections during timed runs do not
    # traverse it.
    gc.collect()
    gc.freeze()
    samples = []
    runs = 0
    t_start = time.perf_counter()
    # Start a run only while at least half of one (the median so far) fits in
    # the window, so a process overruns --seconds by at most half a run.
    def half_a_run_fits():
        typical = statistics.median(s.run_s for s in samples or [reference])
        return time.perf_counter() - t_start + 0.5 * typical < args.seconds

    while runs == 0 or half_a_run_fits():
        runs += 1
        sample = ledger.run(workload, inputs, reference, f"run {runs}")
        if sample is not None:
            samples.append(sample)
    if not samples:
        print("perfbench: every timed run raised; no result", file=sys.stderr)
        return 1
    import_s += [import_seconds() for _ in range(IMPORT_REPEATS - IMPORT_REPEATS // 2)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    end_to_end = {
        "run_s": (*median_of([s.run_s for s in samples]), "s"),
        "build_s": (*median_of([s.phases["build"] for s in samples]), "s"),
        "eval_s": (*median_of([s.phases["eval"] for s in samples]), "s"),
        "io_s": (*median_of([s.phases["io"] for s in samples]), "s"),
        "setup_s": (statistics.median(import_s) + statistics.median(setup_s),
                    min(IMPORT_REPEATS, SETUP_REPEATS), "s"),
        "steps": (reference.outcome.steps, 1, "count"),
        "flow_time_T": (reference.outcome.flow_time_T, 1, "time_units"),
        "peak_rss_mb": (peak_rss_mb, 1, "MB"),
    }
    per_layer = None
    spans = None
    if args.trace:
        from tracing import Tracer

        with Tracer() as tracer:
            traced = ledger.run(workload, inputs, reference, "traced run")
        if traced is None:
            print("perfbench: the traced run raised; no result", file=sys.stderr)
            return 1
        per_layer = {k: (v, 1, unit) for k, (v, unit) in tracer.layer_metrics().items()}
        per_layer["trace.overhead_frac"] = (traced.run_s / end_to_end["run_s"][0] - 1.0,
                                            1, "ratio")
        spans = tracer.spans
    gc.unfreeze()

    shown = per_layer if args.trace else end_to_end
    failed_frac = ledger.failed / ledger.attempted
    for name, (value, n, unit) in shown.items():
        print(f"{name:<46} {value:>16.6g} {unit:<10} n={n}")
    print(f"{'fail_frac':<46} {failed_frac:>16.6g} {'ratio':<10} "
          f"({ledger.failed}/{ledger.attempted})")
    for name in ledger.failed_names:
        print(f"FAILED {name}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed, threads_seen),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_checks": ledger.failed_names,
        "fail_frac": failed_frac,
        "end_to_end": {k: {"value": v, "samples": n, "unit": u}
                       for k, (v, n, u) in end_to_end.items()},
        "per_layer": ({k: {"value": v, "unit": u} for k, (v, _, u) in per_layer.items()}
                      if per_layer else None),
        "raw": {"run_s": [s.run_s for s in samples],
                "phases": [s.phases for s in samples],
                "import_s": import_s, "setup_inputs_s": setup_s},
        "checks": {"warm-up": sorted(reference.checks), "timed": sorted(samples[0].checks)},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(
            json.dumps({"fields": ["id", "name", "start", "end", "parent"], "spans": spans}),
            encoding="utf-8")

    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, _, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())

"""Acceptance gate: every shipped guarantee at its stated tolerance.

Each test runs one criterion from the selftest suite and prints its pass/fail
line; the final test checks that two identically-seeded selftest runs write
byte-identical reports (the pair of runs is shared with test_cli.py through
the ``selftest_runs`` fixture).
"""

import json
import time

import pytest

from flowmap.selftest import CRITERIA

TIME_BUDGETS = {
    "1_exact_relu_flow": 1.0,
    "2_sigmoid_bound": 1.0,
    "3_splitting_rate": 5.0,
    "4_point_matching": 30.0,
    "5_increasing_approx": 60.0,
    "8_nd_pipeline": 6 * 600.0,
    "9_separation_transport": 60.0,
    "11_tensor_shear": 60.0,
}


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[name for name, _ in CRITERIA])
def test_criterion(name, fn):
    t0 = time.perf_counter()
    record = fn(seed=0)
    elapsed = time.perf_counter() - t0
    status = "PASS" if record["passed"] else "FAIL"
    print(f"[{status}] criterion {name} ({elapsed:.2f}s): "
          f"{json.dumps(record, default=str)[:240]}")
    assert record["passed"], record
    if name in TIME_BUDGETS:
        assert elapsed <= TIME_BUDGETS[name], f"{name} took {elapsed:.1f}s"


def test_selftest_reports_byte_identical(selftest_runs):
    reports = [blob for _, blob in selftest_runs]
    assert reports[0] == reports[1]

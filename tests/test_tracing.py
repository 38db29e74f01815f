"""The benchmark's tracer still finds, wraps and restores every traced function.

``perfbench/run.py --trace 1`` rebinds flowmap functions by name; a rename or
deletion in the library would otherwise only show up when a traced benchmark
run fails.
"""

import sys
from pathlib import Path

import flowmap

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracing import SPECS, Tracer  # noqa: E402


def _bindings():
    owners = [m for name, m in sorted(sys.modules.items())
              if m is not None and (name == "flowmap" or name.startswith("flowmap."))]
    owners += [flowmap.pwl.PwlField, flowmap.families.WellFunction]
    return {(owner, key): value for owner in owners for key, value in vars(owner).items()}


def test_tracer_patches_every_spec_and_restores_on_exit():
    before = _bindings()
    with Tracer() as tracer:
        patched = tracer.patched
        assert {attr for _, attr, _ in patched} >= {attr for _, attr, *_ in SPECS.values()}
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original
    assert tracer.patched == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_one_relu_field_records_one_field_and_one_table_build():
    # pwl.tables times PwlField.__post_init__; if the table build moved out of
    # it, the metric would read 0 instead of failing.
    with Tracer() as tracer:
        flowmap.families.relu_field([[0.5, -1.0]], [[1.0], [2.0]], [0.0, -1.0])
    assert tracer.calls["families.relu_field"] == 1
    assert tracer.calls["pwl.tables"] == 1


def test_budgeted_schedule_records_one_heaviside_compile():
    # rates.compile_heaviside_flow.s is the rate path's compile time; if
    # budgeted_schedule stopped calling the public function, the metric would
    # read 0 instead of failing.
    target = flowmap.builtin_target_1d("pwl4")
    with Tracer() as tracer:
        flowmap.budgeted_schedule(target, 1.0)
    assert tracer.calls["rates.budgeted_schedule"] == 1
    assert tracer.calls["rates.compile_heaviside_flow"] == 1

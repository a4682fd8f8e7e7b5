"""The benchmark's workloads still run against the library.

``bench/`` calls the library through its public modules; this runs each
workload's set-up and first ops at seed 1, checked against the bench's
own referee, so that an API change that breaks the benchmark fails here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SMOKE_OPS = 20


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    return workloads


@pytest.mark.parametrize("name", ["rbac-audit", "guarded-trace", "policy-load"])
def test_workload_first_ops_agree_with_the_referee(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name](1, tmp_path)
    state = workload.setup()
    for op in workload.ops[:SMOKE_OPS]:
        answer = workload.run(state, op, workload.prepare(state, op))
        assert workload.check(op, answer), op


def test_policy_load_hostile_inputs_are_handled(workloads, tmp_path):
    outcomes = workloads.WORKLOADS["policy-load"](1, tmp_path).run_hostile()
    assert outcomes
    assert [label for label, outcome in outcomes if outcome != "ok"] == []

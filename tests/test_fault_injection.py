"""Injected backend faults give the same outputs at every ``parallelism``.

``fixtures.FaultyGateway`` fails a call when the hash of a salt and the
request falls under a rate, so the fault schedule depends on the requests
alone, not on thread timing. The first records of the backend and HTTP
workloads' seed-1 inputs run with ``skip_errors`` at ``parallelism`` 1 and 3:
the rows (wall time aside), the skipped ids with their messages and the
timing-free traces must be equal. They are, because every gather raises its
lowest-index error, the one a serial run meets first.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures

from kgconflict import load_dataset, load_mock_script, parse_config, run_eval
from kgconflict.config import MODES

WORKLOADS = ("eval_backend_bound", "eval_http_loopback")
RECORDS = 40


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    made = {}
    for workload in WORKLOADS:
        gen, config = fixtures.generate_workload(
            workload, 1, tmp_path_factory.mktemp(workload))
        made[workload] = (config, load_dataset(gen.dataset)[:RECORDS],
                          load_mock_script(gen.script))
    return made


def _run(inputs, mode: str, parallelism: int, salt: str, rate: float):
    """The rows without wall time, the skipped records and the timing-free traces."""
    config, records, script = inputs
    cfg = parse_config(config, {"mode": mode, "parallelism": parallelism,
                                "skip_errors": True})
    traces = []

    def sink(trace):
        record = asdict(trace)
        del record["timings"]
        traces.append(record)

    result = run_eval(records, cfg, fixtures.FaultyGateway(script, salt, rate),
                      trace_sink=sink)
    return [replace(r, wall_time=0.0) for r in result.rows], result.skipped, traces


def test_injected_faults_skip_some_records_but_not_all(inputs):
    rows, skipped, traces = _run(inputs["eval_backend_bound"], "full", 1, "", 0.03)
    assert 0 < len(skipped) < RECORDS
    assert len(rows) == len(traces) == RECORDS - len(skipped)
    assert {message.split(" ")[0] for _, message in skipped} == {"injected"}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(workload=st.sampled_from(WORKLOADS), mode=st.sampled_from(MODES),
       salt=st.text(max_size=6), rate=st.floats(0.01, 0.06))
def test_injected_faults_give_equal_outputs_at_every_parallelism(
    inputs, workload, mode, salt, rate
):
    serial = _run(inputs[workload], mode, 1, salt, rate)
    assert _run(inputs[workload], mode, 3, salt, rate) == serial

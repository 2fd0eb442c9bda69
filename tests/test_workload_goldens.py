"""Byte-identity gate over the benchmark's inputs.

The first records of each benchmark workload's seed-1 inputs run through
``run_eval`` in every mode, at ``parallelism`` 1 and 3, answered by the
workload's mock script (the HTTP workload's loopback server answers from the
same script). The sha256 of ``results.csv``, ``summary.json``, the trace lines
without timings and the p = 1 request list (each prompt and embed input, in
call order) must equal ``tests/golden/workloads.json``; at p = 3 the outputs
are the same and the requests are the same multiset. In every run, each trace
line decodes back to a trace from which ``record_result`` rebuilds its row,
wall time included. The HTTP workload's records also run through
``HttpGateway`` against ``perfbench/loopback_server.py`` serving the same
script on a thread, so the client's transport and reply parsing must give the
same bytes as the in-process mock. A child process re-runs these goldens and
the CLI's golden artifacts under the kernels an older x86 CPU would get, so
the bytes do not depend on the kernels numpy and OpenBLAS select.

A change meant to alter outputs rewrites the golden file with
``PYTHONPATH=src python tests/test_workload_goldens.py`` and names each
changed digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import pytest

import fixtures

import kgconflict
from kgconflict import (
    GenerationRequest,
    HttpGateway,
    QueryTrace,
    load_dataset,
    load_mock_script,
    parse_config,
    record_result,
    run_eval,
)
from kgconflict.config import MODES
from kgconflict.jsonio import decode
from kgconflict.evaluation import write_results_csv, write_summary_json

GOLDEN = Path(__file__).parent / "golden" / "workloads.json"
WORKLOADS = ("eval_backend_bound", "eval_hub_cpu", "eval_http_loopback")
SEED = 1
RECORDS = 20


def _generate(workload: str, out_dir: Path):
    """The workload's config file, first records and mock script, in ``out_dir``."""
    gen, config = fixtures.generate_workload(workload, SEED, out_dir)
    return config, load_dataset(gen.dataset)[:RECORDS], load_mock_script(gen.script)


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _run(inputs, mode: str, parallelism: int, out_dir: Path) -> tuple[dict, list]:
    """One eval run's digests, and the requests it made in call order."""
    config, records, script_gateway = inputs
    cfg = parse_config(config, {"mode": mode, "parallelism": parallelism})
    gateway = fixtures.RecordingGateway(script_gateway)
    lines, full_lines = [], []

    def sink(trace):
        record = asdict(trace)
        full_lines.append(json.dumps(record, sort_keys=True))
        del record["timings"]
        lines.append(json.dumps(record, sort_keys=True) + "\n")

    result = run_eval(records, cfg, gateway, trace_sink=sink)
    # Each row is a function of its record and its trace line.
    traces = [decode(QueryTrace, json.loads(line), "trace") for line in full_lines]
    assert sorted(map(record_result, records, traces),
                  key=lambda row: row.record_id) == result.rows
    out_dir.mkdir(parents=True)
    write_results_csv(result, out_dir / "results.csv")
    write_summary_json(result, out_dir / "summary.json")
    calls = [json.dumps(call) for call in gateway.calls]
    return {
        "results.csv": _sha((out_dir / "results.csv").read_bytes()),
        "summary.json": _sha((out_dir / "summary.json").read_bytes()),
        "trace": _sha("".join(lines)),
        "requests": _sha("\n".join(calls)),
    }, calls


@pytest.fixture(scope="module")
def workload_inputs(tmp_path_factory):
    made = {}

    def inputs(workload: str):
        if workload not in made:
            made[workload] = _generate(workload, tmp_path_factory.mktemp(workload))
        return made[workload]

    return inputs


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_outputs_match_golden_at_every_parallelism(
    workload_inputs, tmp_path, workload, mode
):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[f"{workload}/{mode}"]
    serial, serial_calls = _run(workload_inputs(workload), mode, 1, tmp_path / "p1")
    assert serial == golden
    _assert_p3_matches(workload_inputs(workload), mode, golden, serial_calls, tmp_path)


def _assert_p3_matches(inputs, mode: str, golden: dict, serial_calls: list, tmp_path):
    """At p = 3 the outputs equal the golden and the requests are the p = 1 ones."""
    parallel, parallel_calls = _run(inputs, mode, 3, tmp_path / "p3")
    assert {k: v for k, v in parallel.items() if k != "requests"} == {
        k: v for k, v in golden.items() if k != "requests"}
    assert Counter(parallel_calls) == Counter(serial_calls)


@pytest.fixture(scope="module")
def http_inputs(workload_inputs):
    """The HTTP workload's inputs, answered by ``HttpGateway`` through the
    benchmark's loopback server, which serves the workload's script."""
    config, records, script_gateway = workload_inputs("eval_http_loopback")
    import loopback_server  # perfbench/ is on sys.path once a workload is generated

    server = loopback_server.make_server(script_gateway, GenerationRequest)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}/v1"
        yield config, records, HttpGateway(url, "bench-model", max_attempts=1)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.parametrize("mode", MODES)
def test_http_client_outputs_match_golden(http_inputs, tmp_path, mode):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[f"eval_http_loopback/{mode}"]
    serial, serial_calls = _run(http_inputs, mode, 1, tmp_path / "p1")
    assert serial == golden
    if mode == "full":
        _assert_p3_matches(http_inputs, mode, golden, serial_calls, tmp_path)


# OpenBLAS's SSE3 kernels, and numpy's baseline loops in place of its AVX2 and
# AVX-512 ones: what a CPU older than this one's would run.
OTHER_KERNELS = {"OPENBLAS_CORETYPE": "Prescott",
                 "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the kernel names are x86 ones")
def test_goldens_hold_under_other_cpu_kernels():
    """The golden runs pass in a child process whose numpy and OpenBLAS run
    other SIMD kernels; the variables are set on that child only."""
    tests = Path(__file__).parent
    src = str(Path(kgconflict.__file__).parents[1])
    env = {**os.environ, **OTHER_KERNELS,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([
        # numpy warns (ImportWarning) when the host lacks a feature to disable.
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "-W", "ignore::ImportWarning",
        f"{tests / 'test_workload_goldens.py'}::"
        "test_workload_outputs_match_golden_at_every_parallelism",
        f"{tests / 'test_cli.py'}::test_artifacts_match_golden_copies",
        f"{tests / 'test_cli.py'}::test_every_mode_matches_its_golden_artifacts",
    ], env=env, cwd=tests.parent, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-1000:]


def main() -> None:
    """Rewrite the golden file from the current program's p = 1 runs."""
    import logging
    import tempfile

    logging.disable(logging.WARNING)  # the workloads plan skipped segments
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            inputs = _generate(workload, Path(tmp) / workload)
            for mode in MODES:
                golden[f"{workload}/{mode}"], _ = _run(
                    inputs, mode, 1, Path(tmp) / workload / mode)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    main()

"""The benchmark's workload plan as an oracle over any seed.

``perfbench/workloads.generate`` plans every record before writing it: its
prediction, whether that is correct, and which fallback fires. The plan is
written apart from the pipeline, so it says whether outputs are right, not
only whether they changed. Hypothesis draws a workload, a seed, a window of
records and a ``parallelism``; every row must equal its record's plan, no
record may be skipped, and ``results.csv`` and ``summary.json`` must be the
bytes the same window gives at ``parallelism`` 1.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures

from kgconflict import load_dataset, load_mock_script, parse_config, run_eval
from kgconflict.evaluation import write_results_csv, write_summary_json

WORKLOADS = ("eval_backend_bound", "eval_hub_cpu", "eval_http_loopback")
WINDOW = 8


def _outputs(result, out_dir: Path) -> tuple[bytes, bytes]:
    out_dir.mkdir()
    write_results_csv(result, out_dir / "results.csv")
    write_summary_json(result, out_dir / "summary.json")
    return (out_dir / "results.csv").read_bytes(), (out_dir / "summary.json").read_bytes()


@settings(max_examples=12, deadline=None, derandomize=True)
@given(workload=st.sampled_from(WORKLOADS), seed=st.integers(0, 2**32 - 1),
       start=st.integers(0, 100 - WINDOW), parallelism=st.integers(1, 3))
def test_every_row_is_planned_at_any_seed_and_parallelism(
    workload, seed, start, parallelism
):
    with tempfile.TemporaryDirectory() as tmp:
        gen, config = fixtures.generate_workload(workload, seed, Path(tmp) / "inputs")
        records = load_dataset(gen.dataset)[start:start + WINDOW]
        gateway = load_mock_script(gen.script)
        outputs = {}
        for p in sorted({1, parallelism}):
            result = run_eval(records, parse_config(config, {"parallelism": p}), gateway)
            assert result.skipped == []
            assert {r.record_id: (r.prediction, r.correct, r.fallback)
                    for r in result.rows} == {
                rec.id: (plan.prediction, plan.correct, plan.fallback)
                for rec in records for plan in [gen.plan[rec.id]]}
            outputs[p] = _outputs(result, Path(tmp) / f"p{p}")
        assert outputs[parallelism] == outputs[1]

"""Dataset loading, accuracy, CPR, and the eval runner."""

from __future__ import annotations

import json
import threading
import time
from dataclasses import replace

import pytest

import fixtures

from kgconflict import (
    DuplicateId,
    EvalRecord,
    MissingGoldSpans,
    ParseError,
    PipelineConfig,
    cpr,
    is_correct,
    load_dataset,
    load_mock_script,
    run_eval,
)
from kgconflict.evaluation import summary_dict, write_results_csv, write_summary_json


def _write_dataset(tmp_path, records, name="data.jsonl"):
    path = tmp_path / name
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )
    return path


def _record(**overrides):
    base = {
        "id": "r1",
        "question": "What color is the sky?",
        "context": "The sky is blue. Grass is green.",
        "gold_answers": ["blue"],
    }
    base.update(overrides)
    return base


# ---------------------------------------------------------------------------
# load_dataset


def test_load_dataset_well_formed(tmp_path):
    path = _write_dataset(tmp_path, [_record(), _record(id="r2")])
    records = load_dataset(path)
    assert len(records) == 2
    assert records[0].id == "r1"
    assert records[0].gold_answers == ("blue",)
    assert records[0].gold_spans is None


def test_load_dataset_missing_gold_answers(tmp_path):
    bad = _record()
    del bad["gold_answers"]
    path = _write_dataset(tmp_path, [bad])
    with pytest.raises(ParseError, match="record 1"):
        load_dataset(path)


def test_load_dataset_duplicate_id(tmp_path):
    path = _write_dataset(tmp_path, [_record(), _record()])
    with pytest.raises(DuplicateId):
        load_dataset(path)


def test_load_dataset_span_out_of_bounds(tmp_path):
    path = _write_dataset(tmp_path, [_record(gold_spans=[[0, 10_000]])])
    with pytest.raises(ParseError, match="bounds"):
        load_dataset(path)


def test_load_dataset_valid_spans(tmp_path):
    record = _record(gold_spans=[[0, 16]])
    path = _write_dataset(tmp_path, [record])
    loaded = load_dataset(path)
    assert loaded[0].gold_spans == ((0, 16),)


def test_load_dataset_bool_span_offset(tmp_path):
    path = _write_dataset(tmp_path, [_record(gold_spans=[[True, 5]])])
    with pytest.raises(ParseError, match="gold span"):
        load_dataset(path)


def test_load_dataset_invalid_json_line(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text(json.dumps(_record()) + "\n{oops\n", encoding="utf-8")
    with pytest.raises(ParseError, match="record 2"):
        load_dataset(path)


def test_load_dataset_non_string_gold(tmp_path):
    path = _write_dataset(tmp_path, [_record(gold_answers=["ok", 7])])
    with pytest.raises(ParseError, match="gold_answers"):
        load_dataset(path)


def test_load_dataset_tolerates_extra_keys(tmp_path):
    path = _write_dataset(tmp_path, [_record(source="unit-test", split="dev")])
    assert load_dataset(path)[0].id == "r1"


# ---------------------------------------------------------------------------
# is_correct


def test_is_correct_containment():
    assert is_correct("the answer is Sinaloa.", ["Sinaloa"])


def test_is_correct_empty_prediction():
    assert not is_correct("", ["anything"])


def test_is_correct_case_insensitive():
    assert is_correct("SINALOA", ["sinaloa"])


def test_is_correct_strips_articles_and_punctuation():
    assert is_correct("It is the Eiffel Tower!", ["Eiffel tower"])
    assert not is_correct("It is the Leaning Tower", ["Eiffel tower"])


def test_is_correct_ignores_empty_normalized_gold():
    assert not is_correct("some answer", ["the", "!!"])


# ---------------------------------------------------------------------------
# CPR


def _span_record(context: str, golds: list[str], spans) -> EvalRecord:
    return EvalRecord(
        id="c1", question="q?", context=context,
        gold_answers=tuple(golds), gold_spans=tuple(spans),
    )


def test_cpr_all_gold_context_is_one():
    context = "Paris is the capital of France."
    record = _span_record(context, ["Paris"], [(0, len(context))])
    assert cpr(context, record) == 1.0


def test_cpr_disjoint_context_is_zero():
    record = _span_record("Paris is the capital.", ["Paris"], [(0, 21)])
    assert cpr("Bananas are yellow. Apples are red.", record) == 0.0


def test_cpr_half_gold_fixture():
    # Two sentences of equal length: one carries the gold answer.
    gold_sentence = "The answer is Paris city."  # 25 chars
    noise_sentence = "Nothing useful over here."  # 25 chars
    processed = gold_sentence + " " + noise_sentence
    record = _span_record(
        "The answer is Paris city.", ["Paris"], [(0, 25)]
    )
    value = cpr(processed, record)
    assert value == pytest.approx(0.5, abs=0.05)


def test_cpr_span_overlap_rule_without_answer_string():
    # The sentence shares > 60% of the span's tokens but never names the gold.
    context = "The giant red bridge spans the misty bay."
    record = _span_record(context, ["Golden Gate"], [(0, len(context))])
    processed = "The giant red bridge spans the bay. Elephants eat grass today."
    value = cpr(processed, record)
    related = len("The giant red bridge spans the bay. ")
    assert value == pytest.approx(related / len(processed), abs=1e-9)


def test_cpr_requires_gold_spans():
    record = EvalRecord(id="x", question="q", context="c",
                        gold_answers=("a",), gold_spans=None)
    with pytest.raises(MissingGoldSpans):
        cpr("anything", record)


def test_cpr_empty_processed_context_is_zero():
    record = _span_record("context here.", ["x"], [(0, 13)])
    assert cpr("", record) == 0.0


def test_cpr_always_within_unit_interval():
    import numpy as np

    rng = np.random.default_rng(17)
    words = ["alpha", "beta", "gamma", "delta", "Paris", "noise"]
    for _ in range(100):
        context_words = [words[int(i)] for i in rng.integers(0, 6, 12)]
        context = " ".join(context_words) + "."
        record = _span_record(context, ["Paris"], [(0, len(context))])
        processed_words = [words[int(i)] for i in rng.integers(0, 6, 20)]
        processed = ". ".join(
            " ".join(processed_words[i : i + 5]).capitalize()
            for i in range(0, 20, 5)
        ) + "."
        assert 0.0 <= cpr(processed, record) <= 1.0


# ---------------------------------------------------------------------------
# run_eval


def _replay_records():
    raw = fixtures.replay_dataset_record()
    return [
        EvalRecord(
            id=raw["id"], question=raw["question"], context=raw["context"],
            gold_answers=tuple(raw["gold_answers"]),
            gold_spans=tuple(tuple(s) for s in raw["gold_spans"]),
        )
    ]


def test_run_eval_no_rag_uses_parametric_answer(replay_config, replay_gateway):
    cfg = replace(replay_config, mode="no_rag")
    result = run_eval(_replay_records(), cfg, replay_gateway)
    assert result.rows[0].prediction == fixtures.PARAMETRIC_TEXT
    assert result.accuracy == 0.0
    assert result.rows[0].context_tokens == 0


def test_run_eval_full_mode_replay_accuracy_one(replay_config, replay_gateway):
    result = run_eval(_replay_records(), replay_config, replay_gateway)
    assert result.accuracy == 1.0
    row = result.rows[0]
    assert row.correct
    assert row.h_param == pytest.approx(fixtures.H_PARAM_BITS, abs=1e-12)
    assert row.delta_h_max == pytest.approx(
        fixtures.H_CORRECTIVE_BITS - fixtures.H_PARAM_BITS, abs=1e-12
    )
    assert row.cpr is not None and 0.0 <= row.cpr <= 1.0


def test_run_eval_no_conflict_has_longer_context(replay_config, replay_gateway):
    full = run_eval(_replay_records(), replay_config, replay_gateway)
    cfg = replace(replay_config, mode="no_conflict")
    no_conflict = run_eval(_replay_records(), cfg, replay_gateway)
    assert (
        no_conflict.rows[0].context_tokens > full.rows[0].context_tokens
    )
    # The graph stage is identical; only the filtering differs.
    assert no_conflict.accuracy == 1.0


def test_run_eval_standard_rag(replay_config, replay_gateway):
    cfg = replace(replay_config, mode="standard_rag")
    result = run_eval(_replay_records(), cfg, replay_gateway)
    assert result.rows[0].prediction == fixtures.PARAMETRIC_TEXT
    assert result.rows[0].h_param is None
    assert result.rows[0].context_tokens == len(
        fixtures.REPLAY_CONTEXT.split()
    )


def test_run_eval_no_kg_filters_raw_chunks(replay_config, replay_gateway):
    cfg = replace(replay_config, mode="no_kg", max_segment_tokens=12)
    result = run_eval(_replay_records(), cfg, replay_gateway)
    row = result.rows[0]
    assert row.h_param is not None
    assert row.fallback in ("none", "top_delta")


def test_run_eval_aggregates_match_rows(replay_config, replay_gateway):
    records = _replay_records()
    result = run_eval(records, replay_config, replay_gateway)
    assert result.accuracy == sum(r.correct for r in result.rows) / len(result.rows)
    cprs = [r.cpr for r in result.rows if r.cpr is not None]
    assert result.mean_cpr == sum(cprs) / len(cprs)
    assert result.mean_context_tokens == (
        sum(r.context_tokens for r in result.rows) / len(result.rows)
    )
    assert result.mean_wall_time == (
        sum(r.wall_time for r in result.rows) / len(result.rows)
    )


def test_run_eval_skip_errors_reports_failures(tmp_path, replay_config):
    # A script with no entries fails every gateway call.
    empty_script = fixtures.write_script(tmp_path / "empty.jsonl", [])
    cfg = PipelineConfig(mock_script=str(empty_script), skip_errors=True)
    records = _replay_records()
    result = run_eval(records, cfg)
    assert result.rows == []
    assert len(result.skipped) == 1
    assert result.skipped[0][0] == "replay-1"


def test_run_eval_aborts_without_skip_errors(tmp_path):
    empty_script = fixtures.write_script(tmp_path / "empty.jsonl", [])
    cfg = PipelineConfig(mock_script=str(empty_script))
    with pytest.raises(Exception):
        run_eval(_replay_records(), cfg)


def test_run_eval_parallel_matches_serial(replay_config, replay_gateway):
    records = _replay_records() + [
        replace(_replay_records()[0], id="replay-2"),
        replace(_replay_records()[0], id="replay-3"),
    ]
    serial = run_eval(records, replay_config, replay_gateway)
    parallel_cfg = replace(replay_config, parallelism=3)
    parallel = run_eval(records, parallel_cfg, replay_gateway)
    strip = lambda rows: [replace(r, wall_time=0.0) for r in rows]
    assert strip(serial.rows) == strip(parallel.rows)
    assert serial.accuracy == parallel.accuracy


class _LastToFinish:
    """Holds every call for one question until the other records' calls returned."""

    def __init__(self, inner, slow_question: str, others: int) -> None:
        self.inner = inner
        self.slow_question = slow_question
        self.others = others
        self.returned = 0
        self.lock = threading.Lock()
        self.others_done = threading.Event()

    def generate(self, req):
        if self.slow_question in req.prompt:
            assert self.others_done.wait(timeout=10)
            time.sleep(0.05)  # so the other records finish well before this one
            return self.inner.generate(req)
        result = self.inner.generate(req)
        with self.lock:
            self.returned += 1
            if self.returned == self.others:
                self.others_done.set()
        return result

    def embed(self, texts):
        return self.inner.embed(texts)


def test_run_eval_sends_traces_in_dataset_order(tmp_path):
    entry = fixtures.gen_entry(".", "blue", fixtures.one_token("blue"), regex=True)
    script = fixtures.write_script(tmp_path / "any.jsonl", [entry])
    cfg = PipelineConfig(mock_script=str(script), mode="no_rag", parallelism=4)
    records = [
        EvalRecord(id=f"r{i}", question=f"Question {i}?", context="",
                   gold_answers=("blue",))
        for i in range(4)
    ]
    gateway = _LastToFinish(load_mock_script(str(script)), "Question 0?", others=3)
    seen = []
    run_eval(records, cfg, gateway, trace_sink=lambda trace: seen.append(trace.question))
    assert seen == [r.question for r in records]


class _SlowCounting:
    """Counts generate calls, each held a few milliseconds."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls = 0
        self.lock = threading.Lock()

    def generate(self, req):
        with self.lock:
            self.calls += 1
        time.sleep(0.005)
        return self.inner.generate(req)

    def embed(self, texts):
        return self.inner.embed(texts)


def test_failing_trace_sink_stops_the_run(tmp_path):
    entry = fixtures.gen_entry(".", "blue", fixtures.one_token("blue"), regex=True)
    script = fixtures.write_script(tmp_path / "any.jsonl", [entry])
    cfg = PipelineConfig(mock_script=str(script), mode="no_rag", parallelism=2)
    records = [
        EvalRecord(id=f"r{i}", question=f"Question {i}?", context="",
                   gold_answers=("blue",))
        for i in range(40)
    ]
    gateway = _SlowCounting(load_mock_script(str(script)))

    def sink(trace):
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        run_eval(records, cfg, gateway, trace_sink=sink)
    assert gateway.calls < 10  # 40 if the queued records had run


def test_csv_and_summary_outputs(tmp_path, replay_config, replay_gateway):
    result = run_eval(_replay_records(), replay_config, replay_gateway)
    csv_path = tmp_path / "results.csv"
    json_path = tmp_path / "summary.json"
    write_results_csv(result, csv_path)
    write_summary_json(result, json_path)
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("id,prediction,correct,cpr")
    assert len(lines) == 2
    summary = json.loads(json_path.read_text(encoding="utf-8"))
    assert summary["schema_version"] == 1
    assert summary["accuracy"] == 1.0
    assert summary["records"] == 1
    assert "mean_wall_time" not in summary
    assert summary == summary_dict(result)

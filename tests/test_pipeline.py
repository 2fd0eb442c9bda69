"""End-to-end answer_query, trace auditing, and config parsing."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, replace

import pytest

import fixtures

from kgconflict import (
    FallbackExhausted,
    PipelineConfig,
    ResolutionConfig,
    RetrievalConfig,
    ValidationError,
    answer_query,
    parse_config,
    resolve,
)
from kgconflict.config import MODEL_TAU_DEFAULTS
from kgconflict.jsonio import decode
from kgconflict.retrieval import ReasoningPath


# ---------------------------------------------------------------------------
# answer_query modes


def test_full_mode_replay(replay_config, replay_gateway):
    response, trace = answer_query(
        fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT,
        replay_config, replay_gateway,
    )
    assert fixtures.REPLAY_GOLD in response
    corrective = [
        trace.p_super[i] for i in trace.report.corrective_indexes()
    ]
    assert [p.nodes for p in corrective] == [fixtures.TARGET_PATH_NODES]
    assert trace.fallback_used == "none"
    assert trace.graph_stats == {"entities": 6, "relations": 5, "triples": 6}


def test_empty_context_exhausts_fallbacks(replay_config, replay_gateway):
    with pytest.raises(FallbackExhausted):
        answer_query("question?", "", replay_config, replay_gateway)


def test_empty_context_ok_in_no_rag_mode(replay_config, replay_gateway):
    cfg = replace(replay_config, mode="no_rag")
    response, trace = answer_query(
        fixtures.REPLAY_QUESTION, "", cfg, replay_gateway
    )
    assert response == fixtures.PARAMETRIC_TEXT
    assert trace.final_context == ""


def test_standard_rag_skips_graph_phases(replay_config, replay_gateway):
    cfg = replace(replay_config, mode="standard_rag")
    response, trace = answer_query(
        fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT, cfg, replay_gateway
    )
    assert response == fixtures.PARAMETRIC_TEXT
    assert trace.segments == []
    assert trace.p_super == []
    assert trace.report is None
    assert trace.final_context == fixtures.REPLAY_CONTEXT


def test_no_conflict_mode_uses_all_super_paths(replay_config, replay_gateway):
    cfg = replace(replay_config, mode="no_conflict")
    _, trace = answer_query(
        fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT, cfg, replay_gateway
    )
    assert trace.report is None
    assert len(trace.p_super) == 10
    for path in trace.p_super:
        assert path.rendered_context in trace.final_context


def test_full_and_no_conflict_share_graph_and_paths(replay_config, replay_gateway):
    _, full = answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT,
                           replay_config, replay_gateway)
    cfg = replace(replay_config, mode="no_conflict")
    _, ablated = answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT,
                              cfg, replay_gateway)
    assert full.graph_stats == ablated.graph_stats
    assert [t for t in full.triples] == [t for t in ablated.triples]
    assert [p.key() for p in full.p_super] == [p.key() for p in ablated.p_super]
    assert [p.score for p in full.p_super] == [p.score for p in ablated.p_super]


def test_question_required(replay_config, replay_gateway):
    with pytest.raises(ValidationError):
        answer_query("  ", "context", replay_config, replay_gateway)


# ---------------------------------------------------------------------------
# Determinism and trace auditing


def _strip_timings(trace_dict: dict) -> dict:
    out = dict(trace_dict)
    out.pop("timings")
    return out


def test_answer_query_is_pure_under_mock(replay_config, replay_gateway):
    first = answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT,
                         replay_config, replay_gateway)
    second = answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT,
                          replay_config, replay_gateway)
    assert first[0] == second[0]
    assert _strip_timings(asdict(first[1])) == _strip_timings(asdict(second[1]))


def test_trace_contains_scores_and_deltas_for_every_super_path(
    replay_config, replay_gateway
):
    _, trace = answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT,
                            replay_config, replay_gateway)
    assert len(trace.p_super) == 10
    assert len(trace.report.per_path) == len(trace.p_super)
    for path in trace.p_super:
        assert path.score > 0.0
        assert path.rendered_context
    indexes = [p.index for p in trace.report.per_path]
    assert indexes == list(range(len(trace.p_super)))


def test_trace_timings_sum_to_total(replay_config, replay_gateway):
    _, trace = answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT,
                            replay_config, replay_gateway)
    phases = [v for k, v in trace.timings.items() if k != "total"]
    assert sum(phases) == pytest.approx(trace.timings["total"], rel=0.05)


def test_trace_replays_resolution(replay_config, replay_gateway, tmp_path):
    """Re-running resolve from the trace's paths reproduces the response."""
    response, trace = answer_query(
        fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT,
        replay_config, replay_gateway,
    )
    dumped = asdict(trace)
    rebuilt = decode(list[ReasoningPath], dumped["p_super"], "p_super")
    outcome = resolve(
        dumped["question"], rebuilt, replay_gateway,
        replay_config.resolution(),
        raw_context=fixtures.REPLAY_CONTEXT,
    )
    assert outcome.response == response
    assert asdict(outcome.report) == dumped["report"]


def test_trace_serialization_is_json_safe(replay_config, replay_gateway):
    _, trace = answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT,
                            replay_config, replay_gateway)
    encoded = json.dumps(asdict(trace), sort_keys=True)
    decoded = json.loads(encoded)
    assert decoded["response"] == trace.response
    assert decoded["graph_stats"]["entities"] == 6


# ---------------------------------------------------------------------------
# Config parsing


def test_defaults_match_documented_values():
    cfg = PipelineConfig()
    assert cfg.effective_tau == 1.0
    assert cfg.retrieval.k_similar == 10
    assert cfg.retrieval.paths_k == 10
    assert cfg.retrieval.alpha == 0.5
    assert cfg.retrieval.beta == 0.5
    assert cfg.temperature == 0.0
    assert cfg.logprob_top_k == 10


def test_parse_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "mock_script = script.jsonl\n"
        'mode = "no_conflict"\n'
        "alpha = 0.25\n"
        "k_similar = 5\n"
        "trace = true\n",
        encoding="utf-8",
    )
    cfg = parse_config(path, {"tau": 3.0, "paths_k": 7})
    assert cfg.mock_script == "script.jsonl"
    assert cfg.mode == "no_conflict"
    assert cfg.retrieval.alpha == 0.25
    assert cfg.retrieval.k_similar == 5
    assert cfg.retrieval.paths_k == 7
    assert cfg.trace is True
    assert cfg.effective_tau == 3.0


def test_parse_config_quoted_values_and_inline_spaces(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "model_url   =   'http://host:1234/v1'\n"
        'model_id = "my model"\n',
        encoding="utf-8",
    )
    cfg = parse_config(path)
    assert cfg.model_url == "http://host:1234/v1"
    assert cfg.model_id == "my model"


def test_parse_config_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("bogus = 1\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="bogus"):
        parse_config(path)


def test_parse_config_bad_value_type(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha = not-a-number\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="alpha"):
        parse_config(path)


def test_parse_config_missing_file():
    with pytest.raises(ValidationError, match="not found"):
        parse_config("/nonexistent/path.cfg")


def test_negative_alpha_rejected():
    with pytest.raises(ValidationError, match="alpha"):
        parse_config(None, {"alpha": -1.0})


def test_invalid_mode_rejected():
    with pytest.raises(ValidationError, match="mode"):
        parse_config(None, {"mode": "bogus"})


def test_tau_model_override_table():
    assert MODEL_TAU_DEFAULTS["qwen2.5-7b"] == 3.0
    cfg = PipelineConfig(model_id="Qwen2.5-7B-Instruct")
    assert cfg.effective_tau == 3.0
    cfg = PipelineConfig(model_id="gpt-4o-mini")
    assert cfg.effective_tau == 1.0
    cfg = PipelineConfig(model_id="Mistral-7B-Instruct")
    assert cfg.effective_tau == 1.0
    cfg = PipelineConfig(model_id="unknown-model")
    assert cfg.effective_tau == 1.0
    cfg = PipelineConfig(model_id="Qwen2.5-7B-Instruct", tau=0.5)
    assert cfg.effective_tau == 0.5


def test_validation_error_messages_carry_field_path():
    with pytest.raises(ValidationError, match="retrieval.k_similar"):
        PipelineConfig(retrieval=RetrievalConfig(k_similar=0)).validate()
    with pytest.raises(ValidationError, match="parallelism"):
        PipelineConfig(parallelism=0).validate()


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: ResolutionConfig(tau=math.nan),
                 "resolution.tau: must be finite, got nan", id="resolution"),
    pytest.param(lambda: RetrievalConfig(paths_k=0),
                 "retrieval.paths_k: must be >= 1, got 0", id="retrieval"),
    pytest.param(lambda: PipelineConfig(max_segment_tokens=0),
                 "max_segment_tokens: must be >= 1, got 0", id="pipeline"),
    pytest.param(lambda: PipelineConfig(temperature=-1.0),
                 "resolution.temperature: must be finite and >= 0, got -1.0",
                 id="pipeline-resolution"),
])
def test_config_is_checked_when_built(build, message):
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("key, value, expects", [
    pytest.param("tau", "abc", "a number", id="float"),
    pytest.param("parallelism", "2", "an integer", id="int"),
    pytest.param("parallelism", True, "an integer", id="bool-is-no-int"),
    pytest.param("trace", 1, "a boolean", id="bool"),
    pytest.param("model_id", 5, "a string", id="str"),
    pytest.param("tau", 10**400, "a number", id="int-too-large-for-a-float"),
])
def test_parse_config_override_must_have_its_key_type(key, value, expects):
    with pytest.raises(ValidationError) as err:
        parse_config(None, {key: value})
    assert str(err.value) == f"override: {key} expects {expects}, got {value!r}"


def test_parse_config_override_takes_an_int_for_a_float_key():
    cfg = parse_config(None, {"tau": 2})
    assert cfg.tau == 2.0 and type(cfg.tau) is float

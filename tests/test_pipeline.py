"""End-to-end answer_query, trace auditing, and config parsing."""

from __future__ import annotations

import ast
import inspect
import json
import math
import re
import sys
import threading
import time
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures

from kgconflict import (
    EntropyReport,
    FallbackExhausted,
    PathEdge,
    PipelineConfig,
    QueryKeyElements,
    QueryTrace,
    ScriptMiss,
    Segment,
    Triple,
    ValidationError,
    answer_query,
    load_mock_script,
    parse_config,
    resolve,
    segment,
)
from kgconflict import config
from kgconflict.config import MODE_TABLE, MODEL_TAU_DEFAULTS, MODES
from kgconflict.conflict import PathEntropy, parametric_baseline
from kgconflict.jsonio import decode
from kgconflict.pipeline import build_gateway
from kgconflict.prompts import REPAIR_NOTE
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


@pytest.mark.parametrize("mode", MODES)
def test_blank_context_exhausts_fallbacks_without_a_model_call(
    replay_config, replay_gateway, mode
):
    cfg = replace(replay_config, mode=mode)
    gateway = fixtures.RecordingGateway(replay_gateway)
    if mode == "no_rag":
        response, trace = answer_query(fixtures.REPLAY_QUESTION, " \n\t ", cfg, gateway)
        assert response == fixtures.PARAMETRIC_TEXT
        assert trace.final_context == ""
        assert len(gateway.requests) == 1
    else:
        with pytest.raises(FallbackExhausted):
            answer_query(fixtures.REPLAY_QUESTION, " \n\t ", cfg, gateway)
        assert gateway.requests == []
    assert gateway.embedded == []


@pytest.mark.parametrize("mode", MODES)
def test_requests_leave_the_model_to_the_gateway(replay_config, replay_gateway, mode):
    cfg = replace(replay_config, mode=mode, model_id="my-model", parallelism=4)
    gateway = fixtures.RecordingGateway(replay_gateway)
    answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT, cfg, gateway)
    assert gateway.requests
    assert [req.model_id for req in gateway.requests] == [None] * len(gateway.requests)


def _stage(prompt: str) -> str:
    if REPAIR_NOTE in prompt:
        return "repair"
    for marker, stage in (("Extract factual knowledge triples", "extract"),
                          ("Identify the key elements", "key_elements"),
                          ("Answer the question from your own knowledge", "parametric"),
                          ("Use the reference information below", "probe")):
        if marker in prompt:
            return stage
    raise AssertionError(f"unknown prompt: {prompt[:60]!r}")


@pytest.mark.parametrize("mode, stages", [
    ("full", {"extract": 0.0, "repair": 0.0, "key_elements": 0.0,
              "parametric": 0.7, "probe": 0.7, "final": 0.7}),
    ("no_kg", {"parametric": 0.7, "probe": 0.7, "final": 0.7}),
    ("no_rag", {"parametric": 0.7}),
])
def test_each_stage_asks_with_its_request_settings(tmp_path, mode, stages):
    """Structured calls go out at temperature 0 and answer calls at the
    configured one; every call carries the configured token settings."""
    triples = json.dumps(fixtures.REPLAY_TRIPLES)
    script = fixtures.write_script(tmp_path / "s.jsonl", [
        # The first extraction reply is not JSON, so the repair retry is sent.
        fixtures.gen_entry("was not valid JSON", triples, fixtures.one_token(triples),
                           regex=True),
        fixtures.gen_entry("Extract factual knowledge triples", "oops",
                           fixtures.one_token("oops"), regex=True),
        *fixtures.replay_script_entries(),
    ])
    gateway = fixtures.RecordingGateway(load_mock_script(script))
    cfg = PipelineConfig(mode=mode, temperature=0.7, max_tokens=77, logprob_top_k=7)
    _, trace = answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT, cfg,
                            gateway)
    sent = {}
    for req in gateway.requests:
        sent.setdefault(_stage(req.prompt), set()).add(req.temperature)
    if mode != "no_rag":  # above temperature 0 the final answer is its own last call
        augmented = [req for req in gateway.requests if _stage(req.prompt) == "probe"]
        assert len(augmented) == len(trace.report.per_path) + 1
        sent["final"] = {gateway.requests[-1].temperature}
    assert sent == {stage: {temperature} for stage, temperature in stages.items()}
    assert {(req.max_tokens, req.logprob_top_k, req.model_id)
            for req in gateway.requests} == {(77, 7, None)}


@pytest.mark.parametrize("settings, chat, embed", [
    pytest.param({}, "default", "default", id="unnamed"),
    pytest.param({"model_id": "m1"}, "m1", "m1", id="chat-model-embeds"),
    pytest.param({"model_id": "m1", "embed_model_id": "e1"}, "m1", "e1", id="both"),
    pytest.param({"embed_model_id": "e1"}, "default", "e1", id="embed-only"),
])
def test_build_gateway_gives_the_http_gateway_the_config_model(settings, chat, embed):
    gateway = build_gateway(PipelineConfig(model_url="http://127.0.0.1:9/v1", **settings))
    assert (gateway.model_id, gateway.embed_model_id) == (chat, embed)
    assert gateway.embed_url == gateway.base_url == "http://127.0.0.1:9/v1"


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
    replayed = resolve(
        QueryTrace(mode=dumped["mode"], question=dumped["question"], p_super=rebuilt),
        replay_gateway, replay_config, raw_context=fixtures.REPLAY_CONTEXT,
    )
    assert replayed.response == response
    assert asdict(replayed.report) == dumped["report"]


# A trace record's keys; ``corrective_paths`` is a property, so it is not one.
_TRACE_KEYS = {
    "mode", "question", "segments", "triples", "graph_stats", "key_elements",
    "important_entities", "important_relations", "p_init_count", "p_super",
    "report", "response", "final_context", "fallback_used", "timings",
}


def test_corrective_paths_are_the_paths_the_report_kept(replay_config, replay_gateway):
    _, trace = answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT,
                            replay_config, replay_gateway)
    kept = trace.report.corrective_indexes()
    assert kept and trace.corrective_paths == [trace.p_super[i] for i in kept]
    assert [p.nodes for p in trace.corrective_paths] == [fixtures.TARGET_PATH_NODES]
    assert set(asdict(trace)) == _TRACE_KEYS


@pytest.mark.parametrize("mode", ["no_kg", "no_conflict"])
def test_corrective_paths_are_empty_without_a_report_or_a_path(
    replay_config, replay_gateway, mode
):
    """In ``no_kg`` the report indexes segments and there is no path; a tau
    every delta clears makes it keep one."""
    cfg = replace(replay_config, mode=mode, tau=-100.0)
    _, trace = answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT,
                            cfg, replay_gateway)
    if mode == "no_kg":
        assert trace.report.corrective_indexes() == [0] and trace.p_super == []
    else:
        assert trace.report is None and trace.p_super
    assert trace.corrective_paths == []
    assert set(asdict(trace)) == _TRACE_KEYS


def test_decode_reads_a_json_integer_as_a_float():
    assert type(decode(float, 2, "score")) is float
    with pytest.raises(ValidationError) as err:
        decode(float | None, 10**400, "paths[0].score")
    assert str(err.value) == "paths[0].score: integer too large for a float"


def test_trace_serialization_is_json_safe(replay_config, replay_gateway):
    _, trace = answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT,
                            replay_config, replay_gateway)
    encoded = json.dumps(asdict(trace), sort_keys=True)
    decoded = json.loads(encoded)
    assert decoded["response"] == trace.response
    assert decoded["graph_stats"]["entities"] == 6


def _round_trip(trace: QueryTrace) -> QueryTrace:
    """A trace through its ``trace.jsonl`` line and back."""
    return decode(QueryTrace, json.loads(json.dumps(asdict(trace), sort_keys=True)),
                  "trace")


@pytest.mark.parametrize("mode", MODES)
def test_a_trace_line_decodes_to_its_trace(replay_config, replay_gateway, mode):
    _, trace = answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT,
                            replace(replay_config, mode=mode), replay_gateway)
    assert _round_trip(trace) == trace


_text = st.text(max_size=6)
_num = st.floats(allow_nan=False, allow_infinity=False)
_traces = st.builds(
    QueryTrace,
    mode=st.sampled_from(MODES),
    question=_text,
    segments=st.lists(st.builds(Segment, id=st.integers(), text=_text,
                                char_range=st.tuples(st.integers(), st.integers()))),
    triples=st.lists(st.builds(Triple, head=_text, relation=_text, tail=_text,
                               source_segment=st.integers(), evidence=_text)),
    graph_stats=st.dictionaries(_text, st.integers()),
    key_elements=st.none() | st.builds(
        QueryKeyElements, target_entities=st.lists(_text).map(tuple),
        target_relations=st.lists(_text).map(tuple), intent=st.text(min_size=1)),
    important_entities=st.lists(st.tuples(_text, _num)),
    important_relations=st.lists(st.tuples(_text, _num)),
    p_init_count=st.integers(),
    p_super=st.lists(st.builds(
        ReasoningPath, nodes=st.lists(_text).map(tuple),
        edges=st.lists(st.builds(PathEdge, relation=_text, triple_index=st.integers(),
                                 direction=_text)).map(tuple),
        score=_num, rendered_context=st.none() | _text), max_size=3),
    report=st.none() | st.builds(
        EntropyReport, h_param=_num,
        per_path=st.lists(st.builds(PathEntropy, index=st.integers(), h_aug=_num,
                                    delta_h=_num, corrective=st.booleans())),
        tau=_num, parametric_answer=_text, augmented_answers=st.lists(_text)),
    response=_text, final_context=_text, fallback_used=_text,
    timings=st.dictionaries(_text, _num),
)


@settings(max_examples=200, deadline=None)
@given(_traces)
def test_any_trace_line_decodes_to_its_trace(trace):
    assert _round_trip(trace) == trace


@pytest.mark.parametrize("key, value, where", [
    ("graph_stats", [], "trace.graph_stats"),
    ("graph_stats", {"triples": 1.5}, "trace.graph_stats.triples"),
    ("key_elements", "x", "trace.key_elements"),
    ("key_elements", {"intent": 3}, "trace.key_elements.intent"),
    ("important_entities", [["a"]], "trace.important_entities[0]"),
    ("important_entities", [["a", "b"]], "trace.important_entities[0][1]"),
    ("segments", [{"id": 0, "text": "t", "char_range": [0, 1, 2]}],
     "trace.segments[0].char_range"),
    ("report", [], "trace.report"),
    ("timings", {"total": None}, "trace.timings.total"),
])
def test_a_malformed_trace_line_names_the_bad_value(key, value, where):
    with pytest.raises(ValidationError, match=rf"^{re.escape(where)}: must be "):
        decode(QueryTrace, {"mode": "full", "question": "q", key: value}, "trace")


# ---------------------------------------------------------------------------
# Call scheduling: overlap within the parallelism bound, reuse, failure order

_MULTI_SEGMENT_TOKENS = 12
_SEGMENTS = segment(fixtures.REPLAY_CONTEXT, _MULTI_SEGMENT_TOKENS)
_KEY_ELEMENTS_PROMPT = "Identify the key elements"


class _InflightGateway(fixtures.RecordingGateway):
    """Holds each generate call briefly; records the calls and threads in flight."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.lock = threading.Lock()
        self.inflight = self.inflight_max = self.extra_threads_max = 0
        self.base_threads = threading.active_count()
        self.threads: set[int] = set()
        self.overlapped: list[str] = []  # prompts sent while another call was out

    def generate(self, req):
        with self.lock:
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)
            if self.inflight > 1:
                self.overlapped.append(req.prompt)
            self.extra_threads_max = max(self.extra_threads_max,
                                         threading.active_count() - self.base_threads)
            self.threads.add(threading.get_ident())
        try:
            time.sleep(0.02)
            return super().generate(req)
        finally:
            with self.lock:
                self.inflight -= 1


class _FailingGateway(fixtures.RecordingGateway):
    """Raises ScriptMiss(label) for a prompt holding the label's marker, after
    the label's delay, so a later call can fail first in time."""

    def __init__(self, inner, failures: dict[str, tuple[str, float]]) -> None:
        super().__init__(inner)
        self.failures = failures
        self.failed: list[str] = []

    def generate(self, req):
        for label, (marker, delay) in self.failures.items():
            if marker in req.prompt:
                time.sleep(delay)
                self.failed.append(label)
                raise ScriptMiss(label)
        return super().generate(req)


def test_parallel_query_overlaps_calls_within_its_bound(replay_config, replay_gateway):
    serial_cfg = replace(replay_config, max_segment_tokens=_MULTI_SEGMENT_TOKENS)
    serial = _InflightGateway(replay_gateway)
    _, serial_trace = answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT,
                                   serial_cfg, serial)
    parallel = _InflightGateway(replay_gateway)
    _, trace = answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT,
                            replace(serial_cfg, parallelism=3), parallel)
    assert len(trace.segments) > 3
    assert serial.inflight_max == 1
    assert serial.threads == {threading.get_ident()} and serial.extra_threads_max == 0
    assert 2 <= parallel.inflight_max <= 3
    for stage in ("Extract factual knowledge triples", _KEY_ELEMENTS_PROMPT,
                  "Use the reference information below"):
        assert any(stage in prompt for prompt in parallel.overlapped), stage
    assert parallel.extra_threads_max <= 3
    assert _strip_timings(asdict(trace)) == _strip_timings(asdict(serial_trace))
    assert sorted(r.prompt for r in parallel.requests) == sorted(
        r.prompt for r in serial.requests)


@pytest.mark.parametrize("mode", [m for m, (_src, filtered) in MODE_TABLE.items()
                                  if filtered])
@pytest.mark.parametrize("settings", [
    pytest.param({}, id="default"),
    pytest.param({"tau": 100.0, "fallback": "raw_context"}, id="raw-fallback"),
    pytest.param({"tau": 100.0}, id="top-delta-fallback"),
    pytest.param({"max_segment_tokens": _MULTI_SEGMENT_TOKENS}, id="multi-segment"),
])
@pytest.mark.parametrize("parallelism", [1, 4])
def test_filtered_modes_send_no_prompt_twice(
    replay_config, replay_gateway, mode, settings, parallelism
):
    """At temperature 0 the final answer reuses the probe of an identical context."""
    cfg = replace(replay_config, mode=mode, parallelism=parallelism, **settings)
    gateway = fixtures.RecordingGateway(replay_gateway)
    answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT, cfg, gateway)
    prompts = [req.prompt for req in gateway.requests]
    assert len(set(prompts)) == len(prompts)


@pytest.mark.parametrize("parallelism", [1, 4])
def test_first_failing_segment_error_surfaces(replay_config, replay_gateway, parallelism):
    gateway = _FailingGateway(replay_gateway, {
        "segment 1": (_SEGMENTS[1].text, 0.05), "segment 3": (_SEGMENTS[3].text, 0.0),
    })
    cfg = replace(replay_config, max_segment_tokens=_MULTI_SEGMENT_TOKENS,
                  parallelism=parallelism)
    with pytest.raises(ScriptMiss, match="^segment 1$"):
        answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT, cfg, gateway)
    assert gateway.failed == (["segment 1"] if parallelism == 1
                              else ["segment 3", "segment 1"])


@pytest.mark.parametrize("failures, expected", [
    pytest.param({"key": (_KEY_ELEMENTS_PROMPT, 0.0)}, "key", id="key-elements"),
    pytest.param({"key": (_KEY_ELEMENTS_PROMPT, 0.0),
                  "segment 2": (_SEGMENTS[2].text, 0.05)}, "segment 2",
                 id="extraction-first"),
])
def test_key_elements_error_surfaces_after_extraction_errors(
    replay_config, replay_gateway, failures, expected
):
    gateway = _FailingGateway(replay_gateway, failures)
    cfg = replace(replay_config, max_segment_tokens=_MULTI_SEGMENT_TOKENS, parallelism=4)
    with pytest.raises(ScriptMiss, match=f"^{expected}$"):
        answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT, cfg, gateway)
    assert gateway.failed[0] == "key"


def test_key_elements_error_is_dropped_with_an_empty_graph(tmp_path):
    no_triples = fixtures.gen_entry("Extract factual knowledge triples", "[]",
                                    fixtures.one_token("[]"), regex=True)
    answers = fixtures.replay_script_entries()[2:]  # no extraction or key entry
    script = fixtures.write_script(tmp_path / "s.jsonl", [no_triples, *answers])
    gateway = _FailingGateway(load_mock_script(script),
                              {"key": (_KEY_ELEMENTS_PROMPT, 0.0)})
    traces = []
    for parallelism in (1, 4):
        cfg = PipelineConfig(mock_script=str(script), parallelism=parallelism,
                             max_segment_tokens=_MULTI_SEGMENT_TOKENS)
        _, trace = answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT,
                                cfg, gateway)
        assert trace.graph_stats["triples"] == 0
        assert trace.key_elements is None
        assert trace.fallback_used == "raw_context"
        traces.append(_strip_timings(asdict(trace)))
    assert gateway.failed == ["key"]  # asked only when it can overlap extraction
    assert traces[0] == traces[1]


_PARAMETRIC_PROMPT = "Answer the question from your own knowledge"


class _OverlapGateway(fixtures.RecordingGateway):
    """Holds each call briefly, an embed call longest; keeps the order calls
    start in, by stage, and each pair of stages that had calls in flight
    together."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.lock = threading.Lock()
        self.started: list[str] = []
        self.out: list[str] = []
        self.together: set[frozenset[str]] = set()

    def _held(self, stage: str, call, hold: float = 0.02):
        with self.lock:
            self.started.append(stage)
            self.together.update(frozenset((stage, other)) for other in self.out)
            self.out.append(stage)
        try:
            time.sleep(hold)
            return call()
        finally:
            with self.lock:
                self.out.remove(stage)

    def generate(self, req):
        return self._held(_stage(req.prompt), partial(super().generate, req))

    def embed(self, texts):
        return self._held("embed", partial(super().embed, texts), hold=0.1)


class _FailingEmbedGateway(_FailingGateway):
    """A _FailingGateway whose embed call fails too, after ``delay``."""

    def __init__(self, inner, failures, delay: float) -> None:
        super().__init__(inner, failures)
        self.delay = delay

    def embed(self, texts):
        time.sleep(self.delay)
        self.failed.append("embed")
        raise ScriptMiss("embed")


def test_parametric_baseline_is_asked_beside_the_embedding_call(
    replay_config, replay_gateway
):
    gateway = _OverlapGateway(replay_gateway)
    answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT,
                 replace(replay_config, parallelism=2), gateway)
    assert frozenset(("parametric", "embed")) in gateway.together
    assert gateway.started.count("parametric") == 1


def test_serial_full_query_asks_in_stage_order(replay_config, replay_gateway):
    gateway = _OverlapGateway(replay_gateway)
    cfg = replace(replay_config, max_segment_tokens=_MULTI_SEGMENT_TOKENS)
    _, trace = answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT, cfg,
                            gateway)
    assert len(trace.segments) > 1
    assert gateway.started == (["extract"] * len(trace.segments)
                               + ["key_elements", "embed", "parametric"]
                               + ["probe"] * len(trace.p_super))
    assert gateway.together == set()


@pytest.mark.parametrize("parallelism", [1, 2])
def test_embedding_error_wins_over_a_baseline_error(
    replay_config, replay_gateway, parallelism
):
    """The baseline fails first in time; the ranking's embed error surfaces."""
    gateway = _FailingEmbedGateway(
        replay_gateway, {"parametric": (_PARAMETRIC_PROMPT, 0.0)}, delay=0.05)
    with pytest.raises(ScriptMiss, match="^embed$"):
        answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT,
                     replace(replay_config, parallelism=parallelism), gateway)
    assert gateway.failed == (["embed"] if parallelism == 1
                              else ["parametric", "embed"])


@pytest.mark.parametrize("parallelism", [1, 2])
def test_baseline_error_surfaces_as_asking_it_alone_raises(
    tmp_path, replay_config, parallelism
):
    entries = [e for e in fixtures.replay_script_entries()
               if e["match"] != _PARAMETRIC_PROMPT]
    gateway = fixtures.RecordingGateway(
        load_mock_script(fixtures.write_script(tmp_path / "s.jsonl", entries)))
    cfg = replace(replay_config, parallelism=parallelism)
    with pytest.raises(ScriptMiss) as alone:
        parametric_baseline(fixtures.REPLAY_QUESTION, gateway, cfg)
    with pytest.raises(ScriptMiss) as err:
        answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT, cfg, gateway)
    assert str(err.value) == str(alone.value)
    assert "probe" not in {_stage(req.prompt) for req in gateway.requests}


@pytest.mark.parametrize("parallelism", [1, 2])
def test_empty_graph_full_query_asks_the_baseline_once(tmp_path, parallelism):
    no_triples = fixtures.gen_entry("Extract factual knowledge triples", "[]",
                                    fixtures.one_token("[]"), regex=True)
    script = fixtures.write_script(tmp_path / "s.jsonl",
                                   [no_triples, *fixtures.replay_script_entries()])
    gateway = fixtures.RecordingGateway(load_mock_script(script))
    cfg = PipelineConfig(mock_script=str(script), parallelism=parallelism)
    _, trace = answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT, cfg,
                            gateway)
    assert trace.graph_stats["triples"] == 0 and trace.fallback_used == "raw_context"
    assert [_stage(req.prompt) for req in gateway.requests].count("parametric") == 1
    assert gateway.embedded == []


# ---------------------------------------------------------------------------
# Config parsing


def test_defaults_match_documented_values():
    cfg = PipelineConfig()
    assert cfg.effective_tau == 1.0
    assert cfg.k_similar == 10
    assert cfg.paths_k == 10
    assert cfg.alpha == 0.5
    assert cfg.beta == 0.5
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
    assert cfg.alpha == 0.25
    assert cfg.k_similar == 5
    assert cfg.paths_k == 7
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
    with pytest.raises(ValidationError, match="^k_similar: must be >= 1, got 0$"):
        PipelineConfig(k_similar=0)
    with pytest.raises(ValidationError, match="parallelism"):
        PipelineConfig(parallelism=0)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: PipelineConfig(tau=math.nan),
                 "tau: must be finite, got nan", id="resolution"),
    pytest.param(lambda: PipelineConfig(paths_k=0),
                 "paths_k: must be >= 1, got 0", id="retrieval"),
    pytest.param(lambda: PipelineConfig(max_segment_tokens=0),
                 "max_segment_tokens: must be >= 1, got 0", id="pipeline"),
    pytest.param(lambda: PipelineConfig(temperature=-1.0),
                 "temperature: must be >= 0, got -1.0",
                 id="pipeline-resolution"),
    # A path's score is at most alpha + beta: an inf sum would write
    # ``"score": Infinity`` into a paths file.
    pytest.param(lambda: PipelineConfig(alpha=1e308, beta=1e308),
                 "alpha+beta: must be finite, got inf", id="coverage-weights-overflow"),
])
def test_config_is_checked_when_built(build, message):
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("key, value, expects", [
    pytest.param("tau", "abc", "a number or null", id="float"),
    pytest.param("parallelism", "2", "an integer", id="int"),
    pytest.param("parallelism", True, "an integer", id="bool-is-no-int"),
    pytest.param("trace", 1, "a boolean", id="bool"),
    pytest.param("model_id", 5, "a string", id="str"),
    pytest.param("tau", 10**400, None, id="int-too-large-for-a-float"),
])
def test_parse_config_override_must_have_its_key_type(key, value, expects):
    with pytest.raises(ValidationError) as err:
        parse_config(None, {key: value})
    if expects is None:
        assert str(err.value) == f"{key}: integer too large for a float"
    else:
        assert str(err.value) == f"{key}: must be {expects}, got {value!r}"


@pytest.mark.parametrize("key, value", [
    ("tau", math.nan), ("fallback", "nope"), ("temperature", -1.0),
    ("max_tokens", 0), ("logprob_top_k", 0),
    ("alpha", -1.0), ("beta", math.inf), ("k_similar", 0), ("paths_k", 0),
])
def test_conflict_stage_errors_name_the_key_the_user_wrote(key, value):
    """Every stage's keys, retrieval's too, keep the name a config file uses."""
    with pytest.raises(ValidationError) as err:
        parse_config(None, {key: value})
    assert str(err.value).startswith(f"{key}:")


def test_zero_coverage_weights_error_names_both_keys():
    with pytest.raises(ValidationError, match=r"^alpha\+beta: must be > 0$"):
        parse_config(None, {"alpha": 0.0, "beta": 0.0})


def test_config_imports_nothing_of_the_package_but_errors():
    """Every stage imports the config, so the config imports no stage."""
    tree = ast.parse(Path(config.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("kgconflict")):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.startswith("kgconflict"))
    assert imported == {"errors"}


def test_parse_config_override_takes_an_int_for_a_float_key():
    cfg = parse_config(None, {"tau": 2})
    assert cfg.tau == 2.0 and type(cfg.tau) is float


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: PipelineConfig(tau="abc"),
                 "tau: must be a number or null, got 'abc'", id="str-for-float"),
    pytest.param(lambda: PipelineConfig(parallelism="2"),
                 "parallelism: must be an integer, got '2'", id="str-for-int"),
    pytest.param(lambda: PipelineConfig(max_tokens=2.5),
                 "max_tokens: must be an integer, got 2.5", id="float-for-int"),
    pytest.param(lambda: PipelineConfig(k_similar=True),
                 "k_similar: must be an integer, got True", id="bool-for-int"),
    pytest.param(lambda: PipelineConfig(alpha=False),
                 "alpha: must be a number, got False", id="bool-for-float"),
    pytest.param(lambda: PipelineConfig(tau=10**400),
                 "tau: integer too large for a float",
                 id="int-too-large-for-a-float"),
])
def test_config_field_types_are_checked_when_built(build, message):
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value) == message


def test_config_names_an_int_too_long_to_show():
    with pytest.raises(ValidationError) as err:
        PipelineConfig(model_id=10**5000)
    assert str(err.value) == "model_id: must be a string, got an int of about 5001 digits"


@pytest.mark.parametrize("line, message", [
    pytest.param("tau = abc", "tau: must be a number or null, got 'abc'", id="float-or-null"),
    pytest.param("alpha = 1.0.0", "alpha: must be a number, got '1.0.0'", id="float"),
    pytest.param("parallelism = 2.5", "parallelism: must be an integer, got '2.5'",
                 id="int"),
    pytest.param("trace = maybe", "trace: must be a boolean, got 'maybe'", id="bool"),
    pytest.param("k_similar = " + "9" * 5000,
                 "k_similar: must be an integer, got '" + "9" * 39, id="cut-at-40"),
    pytest.param("tau = nan", "tau: must be finite, got nan", id="nan"),
    pytest.param("tau = inf", "tau: must be finite, got inf", id="inf"),
    pytest.param("alpha = 1e999", "alpha: must be finite, got inf", id="overflow"),
])
def test_config_file_type_errors_use_the_one_message_form(tmp_path, line, message):
    path = tmp_path / "run.cfg"
    path.write_text(f"# settings\n{line}\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        parse_config(path)
    assert str(err.value) == f"{path}:2: {message}"


def test_config_stores_an_int_for_a_float_field_as_a_float():
    cfg = PipelineConfig(tau=2, temperature=1, alpha=1)
    assert cfg.tau == 2.0 and type(cfg.tau) is float
    assert type(cfg.temperature) is float and type(cfg.alpha) is float
    assert PipelineConfig(tau=None).tau is None


# One config field per type, and the values the table test gives each.
_FIELD_OF_TYPE = {int: "max_tokens", float: "temperature", float | None: "tau",
                  str: "model_id", bool: "trace"}
_BIG = int(sys.float_info.max) + 1  # rounds to the largest float
_TYPE_VALUES = [True, 0, 2, 2.5, 10**400, _BIG, math.nan, math.inf, "x", None]
_ACCEPTED = {
    int: [0, 2, 10**400, _BIG],
    float: [0, 2, 2.5, _BIG],
    float | None: [0, 2, 2.5, _BIG, None],
    str: ["x"],
    bool: [True],
}


def _read_or_error(read, value):
    try:
        result = read(value)
    except ValidationError as exc:
        return "rejected", str(exc)
    return type(result), result


@pytest.mark.parametrize("hint", list(_FIELD_OF_TYPE),
                         ids=["int", "float", "float-or-none", "str", "bool"])
def test_config_and_file_reader_share_one_type_rule(hint):
    """``decode`` and a config field of the same type accept the same values
    and store the same value and type."""
    key = _FIELD_OF_TYPE[hint]

    def config_reads(value):
        try:
            return getattr(PipelineConfig(**{key: value}), key)
        except ValidationError as exc:
            if str(exc).startswith(f"{key}: must be >= "):  # a bound, after the type
                return value
            raise

    for value in _TYPE_VALUES:
        from_file = _read_or_error(lambda v: decode(hint, v, key), value)
        assert _read_or_error(config_reads, value) == from_file, value
        accepted = any(type(value) is type(v) and value == v for v in _ACCEPTED[hint])
        assert (from_file[0] != "rejected") == accepted, value


def test_readme_config_file_example_parses_and_names_every_key(tmp_path):
    block = fixtures.readme_config_block()
    path = tmp_path / "readme.cfg"
    path.write_text(block, encoding="utf-8")
    parse_config(path)
    named = {line.partition("=")[0].strip() for line in block.splitlines()
             if line.strip() and not line.lstrip().startswith("#")}
    assert named == config.ALL_KEYS


def test_package_exports_exactly_its_public_names():
    import kgconflict

    public = {
        name for name, value in vars(kgconflict).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(kgconflict.__all__) == public
    namespace: dict = {}
    exec("from kgconflict import *", namespace)
    assert set(kgconflict.__all__) <= namespace.keys()

"""End-to-end query pipeline.

Phase 1 builds the knowledge graph from the retrieved context, phase 2
retrieves and renders reasoning paths for the question, and phase 3 runs
entropy-based conflict resolution and generates the answer. Each phase reads
the question from the query's ``QueryTrace``, records its decisions there and
returns only what the trace does not hold. The ablation modes differ only in
where the candidate contexts come from and whether the entropy filter runs:
``config.MODE_TABLE`` says which, and one body runs them all.

Independent model calls overlap, ``cfg.parallelism`` at most at a time: the
segment extractions with the key elements, the parametric baseline with the
embedding call that ranks the graph, then the entropy probes.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, TypeVar

from .conflict import (
    EntropyReport,
    entropy_filtered_response,
    parametric_baseline,
    plain_answer,
    resolve,
)
from .config import MODE_TABLE, PipelineConfig
from .errors import ExtractionParseError, FallbackExhausted, ValidationError
from .gateway import ModelGateway, gather, load_mock_script
from .graph import (
    KnowledgeGraph,
    Segment,
    Triple,
    TripleExtraction,
    build_graph,
    extract_triples,
    segment,
)
from .http_gateway import HttpGateway
from .retrieval import (
    QueryKeyElements,
    ReasoningPath,
    contending_paths,
    contextualize,
    extract_key_elements,
    select_super_paths,
    top_k_important,
)

log = logging.getLogger(__name__)

T = TypeVar("T")


@dataclass
class QueryTrace:
    """Complete audit trail of one query: every stage's decisions.

    ``dataclasses.asdict`` of it is one ``trace.jsonl`` record, so a new field
    is a new trace key.
    """

    mode: str
    question: str
    segments: list[Segment] = field(default_factory=list)
    triples: list[Triple] = field(default_factory=list)
    graph_stats: dict[str, int] = field(default_factory=dict)
    key_elements: QueryKeyElements | None = None
    important_entities: list[tuple[str, float]] = field(default_factory=list)
    important_relations: list[tuple[str, float]] = field(default_factory=list)
    p_init_count: int = 0
    p_super: list[ReasoningPath] = field(default_factory=list)
    report: EntropyReport | None = None
    response: str = ""
    final_context: str = ""
    fallback_used: str = ""
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def corrective_paths(self) -> list[ReasoningPath]:
        """The paths the entropy filter kept: none without a report or a path."""
        kept = self.report.corrective_indexes() if self.report and self.p_super else []
        return [self.p_super[i] for i in kept]


def build_gateway(cfg: PipelineConfig) -> ModelGateway:
    """Construct the backend the config describes (mock script wins)."""
    if cfg.mock_script:
        return load_mock_script(cfg.mock_script)
    if cfg.model_url:
        return HttpGateway(cfg.model_url, cfg.model_id, cfg.embed_url, cfg.embed_model_id)
    raise ValidationError("no backend configured: set mock_script or model_url")


def _extract_or_skip(seg: Segment, cfg: PipelineConfig,
                     gateway: ModelGateway) -> list[TripleExtraction] | None:
    """The segment's extractions, or None when the repair retry failed too."""
    try:
        return extract_triples(seg, gateway, cfg)
    except ExtractionParseError as exc:
        log.warning("skipping segment %d: %s", seg.id, exc)
        return None


def _result_or_error(call: Callable[..., T], *args) -> T | Exception:
    """``call(*args)``, or the exception it raised. Only the key-element rider
    needs it: an empty graph drops its result and its error alike, as p = 1 does."""
    try:
        return call(*args)
    except Exception as exc:
        return exc


def build_phase(trace: QueryTrace, context: str, cfg: PipelineConfig,
                gateway: ModelGateway) -> tuple[KnowledgeGraph, int]:
    """Segment, extract and build; returns the graph and the skipped-segment count.

    The extractions run as one gather; a segment whose extraction still fails
    after the repair retry is skipped. Given a non-empty ``trace.question`` at
    ``parallelism`` > 1, its key elements join the gather. An empty graph
    drops them, or their error; else they go on the trace, or the error is
    raised after any extraction error. Segments, triples and graph stats go on
    the trace.
    """
    if context.strip():
        trace.segments = segment(context, cfg.max_segment_tokens)
    calls = [partial(_extract_or_skip, seg, cfg, gateway) for seg in trace.segments]
    if trace.question and cfg.parallelism > 1 and calls:
        calls.append(partial(_result_or_error, extract_key_elements, trace.question,
                             gateway, cfg))
    extracted = gather(calls, cfg.parallelism)
    key = extracted.pop() if len(extracted) > len(trace.segments) else None
    graph = build_graph(ext for exts in extracted if exts is not None for ext in exts)
    trace.triples = list(graph.triples)
    trace.graph_stats = graph.stats()
    if key is not None and not graph.is_empty():
        if isinstance(key, Exception):
            raise key
        trace.key_elements = key
    return graph, sum(exts is None for exts in extracted)


def retrieve_phase(trace: QueryTrace, graph: KnowledgeGraph, cfg: PipelineConfig,
                   gateway: ModelGateway, with_baseline: bool = False
                   ) -> tuple[str, float] | None:
    """Key elements, rank, enumerate, score, select and render ``trace.p_super``.

    An empty graph yields no paths and makes no model call, and key elements
    already on the trace are kept. Every decision is recorded on the trace.
    With ``with_baseline`` and a non-empty graph, the question's parametric
    baseline joins the ranking's embedding call in one gather, and its (answer,
    entropy) is returned; else None is.
    """
    if graph.is_empty():
        return None
    if trace.key_elements is None:
        trace.key_elements = extract_key_elements(trace.question, gateway, cfg)
    calls = [partial(top_k_important, graph, trace.key_elements, cfg, gateway)]
    if with_baseline:
        calls.append(partial(parametric_baseline, trace.question, gateway, cfg))
    important, *baseline = gather(calls, cfg.parallelism)
    trace.important_entities = list(important.entities)
    trace.important_relations = list(important.relations)
    trace.p_init_count, contenders = contending_paths(graph, important, cfg)
    p_super = select_super_paths(contenders, cfg)
    for path in p_super:
        contextualize(path, graph, important)
    trace.p_super = p_super
    return baseline[0] if baseline else None


def answer_query(
    question: str,
    context: str,
    cfg: PipelineConfig,
    gateway: ModelGateway | None = None,
) -> tuple[str, QueryTrace]:
    """Run the configured pipeline mode for one (question, context) pair.

    Every phase writes its decisions on the returned trace. Under the mock
    backend this is a pure function of (question, context, script, config):
    everything except wall-clock timings is reproduced bit-identically, under
    any ``parallelism``. Above 1, the key elements are asked for during
    extraction, so phase 1's timing takes in work of phase 2. In ``full`` mode
    phase 2 also asks for the parametric baseline, beside the embedding call;
    ``timings["total"]`` spans the whole call.
    """
    if not question or not question.strip():
        raise ValidationError("answer_query: question must be non-empty")
    gateway = gateway or build_gateway(cfg)
    trace = QueryTrace(mode=cfg.mode, question=question)

    source, filtered = MODE_TABLE[cfg.mode]
    raw = context if context.strip() else None
    t0 = time.perf_counter()
    if source == "paths":
        graph, _skipped = build_phase(trace, context, cfg, gateway)
    elif source == "segments" and raw:
        trace.segments = segment(raw, cfg.max_segment_tokens)
    t1 = time.perf_counter()
    if source == "paths":
        baseline = retrieve_phase(trace, graph, cfg, gateway, filtered)
    t2 = time.perf_counter()
    if source == "paths" and filtered:
        resolve(trace, gateway, cfg, raw, baseline)
    elif source in ("paths", "segments"):
        contexts = ([p.rendered_context for p in trace.p_super]
                    if source == "paths" else [s.text for s in trace.segments])
        entropy_filtered_response(trace, contexts, gateway, cfg, raw, filtered)
    else:  # the raw text, or no context at all, is the final context as it is
        if source == "raw" and raw is None:
            raise FallbackExhausted(f"{cfg.mode}: no context to answer from")
        final = raw if source == "raw" else None
        trace.response = plain_answer(question, final, gateway, cfg)
        trace.final_context = final or ""
    t3 = time.perf_counter()
    trace.timings = {
        "phase1_construction": t1 - t0,
        "phase2_retrieval": t2 - t1,
        "phase3_resolution": t3 - t2,
        "total": t3 - t0,
    }
    return trace.response, trace

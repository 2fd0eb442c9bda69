"""End-to-end query pipeline.

Phase 1 builds the knowledge graph from the retrieved context, phase 2
retrieves and renders reasoning paths for the question, and phase 3 runs
entropy-based conflict resolution and generates the answer. The ablation
modes differ only in where the candidate contexts come from and whether the
entropy filter runs: ``config.MODE_TABLE`` says which, and one body runs them
all.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

from .conflict import (
    EntropyReport,
    ResolutionOutcome,
    entropy_filtered_response,
    plain_answer,
    resolve,
)
from .config import MODE_TABLE, PipelineConfig
from .errors import ExtractionParseError, FallbackExhausted, ValidationError
from .gateway import ModelGateway, load_mock_script
from .graph import (
    KnowledgeGraph,
    Segment,
    Triple,
    build_graph,
    extract_triples,
    segment,
)
from .http_gateway import HttpGateway
from .retrieval import (
    QueryKeyElements,
    ReasoningPath,
    contextualize,
    enumerate_paths,
    extract_key_elements,
    score_path,
    select_super_paths,
    top_k_important,
)

log = logging.getLogger(__name__)


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


def build_gateway(cfg: PipelineConfig) -> ModelGateway:
    """Construct the backend the config describes (mock script wins)."""
    if cfg.mock_script:
        return load_mock_script(cfg.mock_script)
    if cfg.model_url:
        return HttpGateway(cfg.model_url, cfg.model_id, cfg.embed_url, cfg.embed_model_id)
    raise ValidationError("no backend configured: set mock_script or model_url")


def build_phase(context: str, cfg: PipelineConfig, gateway: ModelGateway,
                trace: QueryTrace) -> tuple[KnowledgeGraph, int]:
    """Segment, extract and build; returns the graph and the skipped-segment count.

    A segment whose extraction still fails after the repair retry is
    skipped. Segments, triples and graph stats are recorded on the trace.
    """
    if context.strip():
        trace.segments = segment(context, cfg.max_segment_tokens)
    extractions = []
    skipped = 0
    for seg in trace.segments:
        try:
            extractions.extend(
                extract_triples(seg, gateway, max_tokens=cfg.max_tokens,
                                logprob_top_k=cfg.logprob_top_k)
            )
        except ExtractionParseError as exc:
            skipped += 1
            log.warning("skipping segment %d: %s", seg.id, exc)
    graph = build_graph(extractions)
    trace.triples = list(graph.triples)
    trace.graph_stats = graph.stats()
    return graph, skipped


def retrieve_phase(question: str, graph: KnowledgeGraph, cfg: PipelineConfig,
                   gateway: ModelGateway, trace: QueryTrace) -> list[ReasoningPath]:
    """Key elements, rank, enumerate, score, select and render the paths.

    An empty graph yields no paths and makes no model call. Every decision
    is recorded on the trace.
    """
    if graph.is_empty():
        return []
    key = extract_key_elements(question, gateway, max_tokens=cfg.max_tokens,
                               logprob_top_k=cfg.logprob_top_k)
    trace.key_elements = key
    important = top_k_important(graph, key, cfg.retrieval, gateway)
    trace.important_entities = list(important.entities)
    trace.important_relations = list(important.relations)
    p_init = enumerate_paths(graph, important)
    trace.p_init_count = len(p_init)
    for path in p_init:
        path.score = score_path(path, important, cfg.retrieval)
    p_super = select_super_paths(p_init, cfg.retrieval)
    for path in p_super:
        contextualize(path, graph, important)
    trace.p_super = p_super
    return p_super


def answer_query(
    question: str,
    context: str,
    cfg: PipelineConfig,
    gateway: ModelGateway | None = None,
) -> tuple[str, QueryTrace]:
    """Run the configured pipeline mode for one (question, context) pair.

    Under the mock backend this is a pure function of (question, context,
    script, config): everything except wall-clock timings is reproduced
    bit-identically.
    """
    if not question or not question.strip():
        raise ValidationError("answer_query: question must be non-empty")
    gateway = gateway or build_gateway(cfg)
    trace = QueryTrace(mode=cfg.mode, question=question)

    source, filtered = MODE_TABLE[cfg.mode]
    resolution = cfg.resolution()
    raw = context if context.strip() else None
    t0 = time.perf_counter()
    if source == "paths":
        graph, _skipped = build_phase(context, cfg, gateway, trace)
    elif source == "segments" and raw:
        trace.segments = segment(raw, cfg.max_segment_tokens)
    t1 = time.perf_counter()
    if source == "paths":
        trace.p_super = retrieve_phase(question, graph, cfg, gateway, trace)
    t2 = time.perf_counter()
    if source == "paths" and filtered:
        outcome = resolve(question, trace.p_super, gateway, resolution,
                          raw_context=raw, parallelism=cfg.parallelism)
    elif source in ("paths", "segments"):
        contexts = ([p.rendered_context or "" for p in trace.p_super]
                    if source == "paths" else [s.text for s in trace.segments])
        outcome = entropy_filtered_response(
            question, contexts, gateway, resolution, raw_context=raw,
            parallelism=cfg.parallelism, filtered=filtered,
        )
    else:  # the raw text, or no context at all, is the final context as it is
        if source == "raw" and raw is None:
            raise FallbackExhausted(f"{cfg.mode}: no context to answer from")
        final = raw if source == "raw" else None
        outcome = ResolutionOutcome(
            response=plain_answer(question, final, gateway, resolution),
            corrective_paths=[], fallback_used="", report=None, final_context=final or "",
        )
    t3 = time.perf_counter()

    trace.response = outcome.response
    trace.report = outcome.report
    trace.fallback_used = outcome.fallback_used
    trace.final_context = outcome.final_context
    trace.timings = {
        "phase1_construction": t1 - t0,
        "phase2_retrieval": t2 - t1,
        "phase3_resolution": t3 - t2,
        "total": t3 - t0,
    }
    return trace.response, trace

"""Evaluation harness: dataset loading, accuracy, CPR, counters, ablations.

Datasets are JSON Lines records. Results are written as a per-record CSV
and a JSON aggregate summary, both fully deterministic for a given
(dataset, script, config); wall-clock counters go to a separate timings
file because they can never be byte-stable.
"""

from __future__ import annotations

import csv
import logging
import string
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .config import PipelineConfig
from .errors import DuplicateId, MissingGoldSpans, ParseError, PipelineError
from .gateway import ModelGateway
from .graph import _SENTENCE_BOUNDARY
from .jsonio import read_json_lines, write_json
from .pipeline import QueryTrace, answer_query, build_gateway

log = logging.getLogger(__name__)

RESULTS_SCHEMA_VERSION = 1

CSV_COLUMNS = {  # results.csv header -> RecordResult attribute, in column order
    "id": "record_id", "prediction": "prediction", "correct": "correct",
    "cpr": "cpr", "h_param": "h_param", "delta_h_min": "delta_h_min",
    "delta_h_max": "delta_h_max", "context_tokens": "context_tokens",
    "fallback": "fallback",
}

_ARTICLES = {"a", "an", "the"}
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)

# A sentence counts as gold-related when at least this fraction of a gold
# span's distinct tokens appear in it.
SPAN_OVERLAP_THRESHOLD = 0.6


@dataclass(frozen=True)
class EvalRecord:
    id: str
    question: str
    context: str
    gold_answers: tuple[str, ...]
    gold_spans: tuple[tuple[int, int], ...] | None = None


@dataclass(frozen=True)
class RecordResult:
    record_id: str
    prediction: str
    correct: bool
    cpr: float | None
    h_param: float | None
    delta_h_min: float | None
    delta_h_max: float | None
    context_tokens: int
    wall_time: float
    fallback: str


@dataclass
class EvalResult:
    mode: str
    rows: list[RecordResult]
    skipped: list[tuple[str, str]]
    accuracy: float
    mean_cpr: float | None
    mean_wall_time: float
    mean_context_tokens: float


def _require(condition: bool, index: int, message: str) -> None:
    if not condition:
        raise ParseError(f"dataset record {index}: {message}")


def load_dataset(path: str | Path) -> list[EvalRecord]:
    """Load JSONL eval records, enforcing types, bounds, and unique ids."""
    records: list[EvalRecord] = []
    seen_ids: set[str] = set()
    for index, raw in read_json_lines(path, "dataset record"):
        _require(isinstance(raw, dict), index, "record must be an object")
        record_id = raw.get("id")
        _require(isinstance(record_id, str) and bool(record_id), index,
                 "missing or empty 'id'")
        if record_id in seen_ids:
            raise DuplicateId(f"dataset record {index}: duplicate id {record_id!r}")
        seen_ids.add(record_id)
        question = raw.get("question")
        _require(isinstance(question, str) and bool(question.strip()), index,
                 "missing or empty 'question'")
        context = raw.get("context")
        _require(isinstance(context, str), index, "missing 'context'")
        golds = raw.get("gold_answers")
        _require(
            isinstance(golds, list) and bool(golds)
            and all(isinstance(g, str) for g in golds),
            index, "'gold_answers' must be a non-empty list of strings",
        )
        spans = None
        if raw.get("gold_spans") is not None:
            raw_spans = raw["gold_spans"]
            _require(isinstance(raw_spans, list), index,
                     "'gold_spans' must be a list")
            parsed = []
            for span in raw_spans:
                _require(
                    isinstance(span, list) and len(span) == 2
                    and all(type(v) is int for v in span),  # a bool is no offset
                    index, "each gold span must be [start, end]",
                )
                start, end = span
                _require(0 <= start < end <= len(context), index,
                         f"gold span [{start}, {end}] outside context bounds")
                parsed.append((start, end))
            spans = tuple(parsed)
        records.append(
            EvalRecord(
                id=record_id,
                question=question,
                context=context,
                gold_answers=tuple(golds),
                gold_spans=spans,
            )
        )
    return records


def normalize_answer(text: str) -> str:
    """Casefold, drop punctuation and articles, collapse whitespace."""
    text = text.casefold().translate(_PUNCT_TABLE)
    tokens = [t for t in text.split() if t not in _ARTICLES]
    return " ".join(tokens)


def is_correct(prediction: str, golds: list[str] | tuple[str, ...]) -> bool:
    """True iff any normalized gold appears inside the normalized prediction."""
    pred = normalize_answer(prediction)
    for gold in golds:
        norm = normalize_answer(gold)
        if norm and norm in pred:
            return True
    return False


def _sentence_partition(text: str) -> list[tuple[int, int]]:
    """Split text into spans that exactly partition the whole string."""
    starts = [0]
    for match in _SENTENCE_BOUNDARY.finditer(text):
        starts.append(match.end())
    spans = []
    for i, start in enumerate(starts):
        end = starts[i + 1] if i + 1 < len(starts) else len(text)
        spans.append((start, end))
    return spans


def _tokens(text: str) -> set[str]:
    return set(normalize_answer(text).split())


def cpr(processed_context: str, record: EvalRecord) -> float:
    """Context Precision Ratio: fraction of processed-context characters
    that belong to gold-related sentences.

    A sentence is gold-related when it contains a gold answer string
    (normalized containment) or shares >= 60% of a gold span's distinct
    tokens. The ratio is clamped to [0, 1]; an empty processed context
    scores 0.
    """
    if record.gold_spans is None:
        raise MissingGoldSpans(f"record {record.id!r} has no gold_spans")
    if not processed_context:
        return 0.0
    span_token_sets = [
        _tokens(record.context[start:end]) for start, end in record.gold_spans
    ]
    span_token_sets = [s for s in span_token_sets if s]
    gold_norms = [normalize_answer(g) for g in record.gold_answers]
    gold_norms = [g for g in gold_norms if g]

    related_chars = 0
    for start, end in _sentence_partition(processed_context):
        sentence = processed_context[start:end]
        sent_norm = normalize_answer(sentence)
        sent_tokens = set(sent_norm.split())
        related = any(g in sent_norm for g in gold_norms)
        if not related:
            for span_tokens in span_token_sets:
                overlap = len(sent_tokens & span_tokens) / len(span_tokens)
                if overlap >= SPAN_OVERLAP_THRESHOLD:
                    related = True
                    break
        if related:
            related_chars += end - start
    return min(1.0, max(0.0, related_chars / len(processed_context)))


def record_result(record: EvalRecord, trace: QueryTrace) -> RecordResult:
    """The record's results row, computed from its ``answer_query`` trace alone."""
    report = trace.report
    deltas = [p.delta_h for p in report.per_path] if report is not None else []
    return RecordResult(
        record_id=record.id,
        prediction=trace.response,
        correct=is_correct(trace.response, record.gold_answers),
        cpr=cpr(trace.final_context, record) if record.gold_spans is not None else None,
        h_param=report.h_param if report is not None else None,
        delta_h_min=min(deltas) if deltas else None,
        delta_h_max=max(deltas) if deltas else None,
        context_tokens=len(trace.final_context.split()),
        wall_time=trace.timings["total"],
        fallback=trace.fallback_used,
    )


def run_eval(
    records: list[EvalRecord],
    cfg: PipelineConfig,
    gateway: ModelGateway | None = None,
    trace_sink: Callable[[QueryTrace], None] | None = None,
) -> EvalResult:
    """Evaluate every record under the configured pipeline mode.

    Gateway failures abort the run unless cfg.skip_errors is set, in which
    case the failing records are reported separately. Rows are ordered by
    record id so aggregation is deterministic under any parallelism. When a
    trace_sink is given it receives each evaluated record's QueryTrace on the
    calling thread, in dataset order, under any parallelism.
    """
    gateway = gateway or build_gateway(cfg)

    def one(record: EvalRecord) -> tuple[RecordResult | PipelineError, QueryTrace | None]:
        try:
            _response, trace = answer_query(record.question, record.context, cfg, gateway)
        except PipelineError as exc:
            if cfg.skip_errors:
                return exc, None
            raise
        return record_result(record, trace), trace

    rows: list[RecordResult] = []
    skipped: list[tuple[str, str]] = []
    parallel = cfg.parallelism > 1 and len(records) > 1
    # The pool starts no thread until a task is submitted, so the sequential
    # path runs every record on the calling thread at no extra cost.
    with ThreadPoolExecutor(max_workers=cfg.parallelism) as pool:
        outcomes = pool.map(one, records) if parallel else map(one, records)
        try:
            for record, (outcome, trace) in zip(records, outcomes):
                if trace is not None and trace_sink is not None:
                    trace_sink(trace)
                if isinstance(outcome, PipelineError):
                    log.warning("skipping record %s: %s", record.id, outcome)
                    skipped.append((record.id, str(outcome)))
                else:
                    rows.append(outcome)
        except BaseException:  # a failing sink: drop the records not yet started
            pool.shutdown(cancel_futures=True)
            raise
    rows.sort(key=lambda r: r.record_id)
    skipped.sort(key=lambda pair: pair[0])

    cprs = [r.cpr for r in rows if r.cpr is not None]
    return EvalResult(
        mode=cfg.mode,
        rows=rows,
        skipped=skipped,
        accuracy=(sum(r.correct for r in rows) / len(rows)) if rows else 0.0,
        mean_cpr=(sum(cprs) / len(cprs)) if cprs else None,
        mean_wall_time=(sum(r.wall_time for r in rows) / len(rows)) if rows else 0.0,
        mean_context_tokens=(
            sum(r.context_tokens for r in rows) / len(rows) if rows else 0.0
        ),
    )


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_results_csv(result: EvalResult, path: str | Path) -> None:
    """Per-record rows (deterministic columns only; a lone surrogate as \\ud800)."""
    with Path(path).open("w", encoding="utf-8", errors="backslashreplace",
                         newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in result.rows:
            writer.writerow([_cell(getattr(row, attr)) for attr in CSV_COLUMNS.values()])


def summary_dict(result: EvalResult) -> dict:
    return {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "mode": result.mode,
        "records": len(result.rows),
        "correct": sum(r.correct for r in result.rows),
        "accuracy": result.accuracy,
        "mean_cpr": result.mean_cpr,
        "mean_context_tokens": result.mean_context_tokens,
        "skipped": [{"id": rid, "error": err} for rid, err in result.skipped],
    }


def write_summary_json(result: EvalResult, path: str | Path) -> None:
    """Aggregate summary (deterministic fields only)."""
    write_json(path, summary_dict(result))


def write_timings_json(result: EvalResult, path: str | Path) -> None:
    """Wall-clock counters; kept out of the deterministic artifacts."""
    write_json(path, {
        "mean_wall_time": result.mean_wall_time,
        "per_record": {r.record_id: r.wall_time for r in result.rows},
    })

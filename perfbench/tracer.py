"""Span tracer installed from outside the program, and the per-layer metrics.

``Tracer.install`` replaces each public layer function listed in
``TARGETS`` by a wrapper in every ``kgconflict`` module that refers to it,
and ``uninstall`` puts the originals back. A span records its name, start,
end, parent span, record tag and thread; spans stay in memory and are
written out when the run ends. ``score_path`` runs once per enumerated path,
so it is summed (time and call count) instead of getting a span per call.

Spans on pool threads have no parent on their own thread; they are parented
to the open ``answer_query`` span of the record their prompt names.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from kgconflict.prompts import (
    ANSWER_AUGMENTED,
    ANSWER_PARAMETRIC,
    EXTRACT_TRIPLES,
    KEY_ELEMENTS,
    REPAIR_NOTE,
    load_template,
)

from workloads import record_tag

# (module, function); "sum" marks a function that is timed without spans.
TARGETS = [
    ("graph", "segment"), ("graph", "extract_triples"), ("graph", "build_graph"),
    ("retrieval", "extract_key_elements"), ("retrieval", "top_k_important"),
    ("retrieval", "enumerate_paths"), ("retrieval", "score_path", "sum"),
    ("retrieval", "select_super_paths"), ("retrieval", "contextualize"),
    ("conflict", "resolve"), ("conflict", "parametric_baseline"),
    ("conflict", "mean_token_entropy"),
    ("pipeline", "answer_query"), ("pipeline", "build_gateway"),
    ("evaluation", "run_eval"), ("evaluation", "cpr"), ("evaluation", "load_dataset"),
    ("evaluation", "write_results_csv"), ("evaluation", "write_summary_json"),
]
GATEWAY = "gateway.call"
QUERY = "pipeline.answer_query"


def _prefix(template: str) -> str:
    return load_template(template).split("{", 1)[0]


_STAGE_PREFIXES = [
    ("extract", _prefix(EXTRACT_TRIPLES)),
    ("key_elements", _prefix(KEY_ELEMENTS)),
    ("parametric", _prefix(ANSWER_PARAMETRIC)),
    ("augmented", _prefix(ANSWER_AUGMENTED)),
]


def prompt_stage(prompt: str) -> str:
    """The prompt template a prompt was rendered from."""
    for stage, prefix in _STAGE_PREFIXES:
        if prompt.startswith(prefix):
            if stage == "extract" and prompt.endswith(REPAIR_NOTE):
                return "repair"
            return stage
    return "unknown"


def _result_info(name: str, out) -> dict:
    """Counts read from a layer function's return value."""
    if name == "graph.segment":
        return {"n": len(out)}
    if name == "graph.build_graph":
        return {"n": len(out.triples)}
    if name in ("retrieval.enumerate_paths", "retrieval.select_super_paths"):
        return {"n": len(out)}
    if name == "conflict.resolve":
        return {"probed": len(out.report.per_path),
                "corrective": len(out.corrective_paths),
                "fallback": out.fallback_used}
    return {}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "record", "thread", "info")

    def __init__(self, id, name, start, end, parent, record, thread, info):
        self.id, self.name, self.start, self.end = id, name, start, end
        self.parent, self.record, self.thread, self.info = parent, record, thread, info

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: dict[str, str] = {}     # qualified name -> why unwrapped
        self._ids = itertools.count(1)
        self._tl = threading.local()
        self._open_query: dict[str, int] = {}
        # Summed functions: parent span id -> [seconds, calls].
        self._sums: dict[int | None, list] = defaultdict(lambda: [0.0, 0])
        self._patched: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._inflight = 0
        self.inflight_max = 0
        self.threads_max = 0

    # --- installing

    def install(self) -> None:
        for target in TARGETS:
            module_name, func_name = target[0], target[1]
            qualified = f"kgconflict.{module_name}.{func_name}"
            module = sys.modules.get(f"kgconflict.{module_name}")
            original = getattr(module, func_name, None) if module else None
            if not callable(original):
                self.missing[f"{module_name}.{func_name}"] = f"{qualified} not found"
                continue
            name = f"{module_name}.{func_name}"
            wrapper = (self._summed(original) if target[2:] == ("sum",)
                       else self._spanned(name, original))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "kgconflict":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # --- recording

    def _stack(self) -> list[int]:
        stack = getattr(self._tl, "stack", None)
        if stack is None:
            stack = self._tl.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        return self._open_query.get(getattr(self._tl, "record", None))

    def _spanned(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            is_query = name == QUERY
            if is_query:
                tracer._tl.record = record_tag(args[0] if args else kwargs["question"])
            record = getattr(tracer._tl, "record", None)
            parent = tracer._parent(stack)
            span_id = next(tracer._ids)
            if is_query:
                tracer._open_query[record] = span_id
            stack.append(span_id)
            info: dict = {}
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                info["error"] = type(exc).__name__
                raise
            else:
                try:
                    info.update(_result_info(name, out))
                except (AttributeError, TypeError) as exc:
                    info["info_error"] = f"{type(exc).__name__}: {exc}"
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_query:
                    tracer._open_query.pop(record, None)
                tracer.spans.append(Span(span_id, name, start, end, parent, record,
                                         threading.current_thread().name, info))

        wrapper.__wrapped__ = fn
        return wrapper

    def _summed(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                # Keys are span ids of this thread, so no other thread
                # updates the same entry.
                acc = tracer._sums[stack[-1] if stack else None]
                acc[0] += time.perf_counter() - start
                acc[1] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def gateway_call(self, kind: str, fn, arg, prompt: str, texts: int, delay_s: float):
        """Called by the proxy for every backend call while tracing."""
        record = record_tag(prompt)
        self._tl.record = record
        stack = self._stack()
        parent = self._parent(stack)
        span_id = next(self._ids)
        with self._lock:
            self._inflight += 1
            self.inflight_max = max(self.inflight_max, self._inflight)
            self.threads_max = max(self.threads_max, threading.active_count())
        info = {
            "query": self._open_query.get(record),  # this record's answer_query span
            "kind": kind,
            "stage": prompt_stage(prompt) if kind == "generate" else "embed",
            "prompt": hashlib.sha1(prompt.encode()).hexdigest() if kind == "generate" else "",
            "texts": texts,
        }
        stack.append(span_id)
        start = time.perf_counter()
        try:
            if delay_s:
                time.sleep(delay_s)
            info["sent"] = time.perf_counter()
            return fn(arg)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self._inflight -= 1
            self.spans.append(Span(span_id, GATEWAY, start, end, parent, record,
                                   threading.current_thread().name, info))

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


class Unavailable(Exception):
    """A metric cannot be computed; the message names the function."""


class LayerMetrics:
    """Per-layer metrics from one traced run; per record unless noted."""

    def __init__(self, tracer: Tracer, records: int) -> None:
        self.t = tracer
        self.n = records
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        self.children: dict[int, list[Span]] = defaultdict(list)
        for span in tracer.spans:
            self.by_name[span.name].append(span)
            if span.parent is not None:
                self.children[span.parent].append(span)

    def spans(self, name: str) -> list[Span]:
        if name in self.t.missing:
            raise Unavailable(self.t.missing[name])
        found = self.by_name.get(name, [])
        if not found:
            raise Unavailable(f"kgconflict.{name} never called")
        return found

    def self_time(self, span: Span) -> float:
        intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                           for c in self.children.get(span.id, ()))
        covered, cur_start, cur_end = 0.0, None, None
        for s, e in intervals:
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        own = span.end - span.start - covered - self.t._sums.get(span.id, (0.0,))[0]
        return max(own, 0.0)

    def total_ms(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans(name)) * 1e3 / self.n

    def self_ms(self, name: str) -> float:
        return sum(self.self_time(s) for s in self.spans(name)) * 1e3 / self.n

    def with_info(self, name: str) -> list[Span]:
        spans = self.spans(name)
        for s in spans:
            if "info_error" in s.info:
                raise Unavailable(f"kgconflict.{name} result: {s.info['info_error']}")
        return spans

    def info_sum(self, name: str, key: str) -> float:
        return sum(s.info.get(key, 0) for s in self.with_info(name))

    def gateway(self, kind: str | None = None) -> list[Span]:
        spans = self.by_name.get(GATEWAY, [])
        if kind is not None:
            spans = [s for s in spans if s.info["kind"] == kind]
        if not spans:
            raise Unavailable(f"no gateway {kind or ''} call reached the proxy")
        return spans

    def stage_counts(self) -> dict[str, int]:
        calls = sorted(self.gateway("generate"), key=lambda s: s.start)
        counts: dict[str, int] = defaultdict(int)
        last_augmented: dict[int | None, Span] = {}
        for s in calls:
            stage = s.info["stage"]
            if stage == "augmented":
                last_augmented[s.info["query"]] = s
                stage = "probe"
            counts[stage] += 1
        counts["probe"] -= len(last_augmented)
        counts["final"] = len(last_augmented)
        return counts

    def repeat_share(self) -> float:
        calls = sorted(self.gateway("generate"), key=lambda s: s.start)
        seen: set[tuple] = set()
        repeats = 0
        for s in calls:
            key = (s.info["query"], s.info["prompt"])
            repeats += key in seen
            seen.add(key)
        return repeats / len(calls)

    def setup_ms(self, name: str) -> float:
        return statistics.median(s.end - s.start for s in self.spans(name)) * 1e3

    def compute(self, overhead_share: float) -> dict[str, tuple[float | None, str]]:
        """Every universal per-layer metric: name -> (value, reason)."""
        n = self.n
        score_s = sum(acc[0] for acc in self.t._sums.values())
        score_calls = sum(acc[1] for acc in self.t._sums.values())
        stages = None

        def stage(name):
            nonlocal stages
            if stages is None:
                stages = self.stage_counts()
            return stages.get(name, 0) / n

        def score(per_call: bool):
            if "retrieval.score_path" in self.t.missing:
                raise Unavailable(self.t.missing["retrieval.score_path"])
            if not score_calls:
                raise Unavailable("kgconflict.retrieval.score_path never called")
            return score_calls / n if per_call else score_s * 1e3 / n

        def rank_ms():
            # Ranking CPU: top_k_important minus the embed call it makes.
            return self.self_ms("retrieval.top_k_important")

        def gateway_self_ms():
            return sum(s.end - s.info["sent"] for s in self.gateway()) * 1e3 / n

        def resolve_info(key):
            return self.info_sum("conflict.resolve", key)

        def fallback_share():
            spans = self.with_info("conflict.resolve")
            return sum(s.info["fallback"] != "none" for s in spans) / len(spans)

        table = {
            "gateway.generate_calls": lambda: len(self.gateway("generate")) / n,
            "gateway.embed_calls": lambda: len(self.gateway("embed")) / n,
            "gateway.embed_texts": lambda: sum(
                s.info["texts"] for s in self.gateway("embed")) / n,
            "gateway.calls.extract": lambda: stage("extract"),
            "gateway.calls.repair": lambda: stage("repair"),
            "gateway.calls.key_elements": lambda: stage("key_elements"),
            "gateway.calls.parametric": lambda: stage("parametric"),
            "gateway.calls.probe": lambda: stage("probe"),
            "gateway.calls.final": lambda: stage("final"),
            "gateway.repeat_prompt_share": self.repeat_share,
            "gateway.inflight_max": lambda: self.gateway() and self.t.inflight_max,
            "gateway.threads_seen": lambda: self.gateway() and self.t.threads_max,
            "gateway.self_ms": gateway_self_ms,
            "graph.segment_ms": lambda: self.total_ms("graph.segment"),
            "graph.extract_ms": lambda: self.total_ms("graph.extract_triples"),
            "graph.build_ms": lambda: self.total_ms("graph.build_graph"),
            "graph.triples": lambda: self.info_sum("graph.build_graph", "n") / n,
            "graph.segments_skipped": lambda: sum(
                s.info.get("error") == "ExtractionParseError"
                for s in self.spans("graph.extract_triples")) / n,
            "retrieval.key_elements_ms": lambda: self.total_ms(
                "retrieval.extract_key_elements"),
            "retrieval.rank_ms": rank_ms,
            "retrieval.enumerate_ms": lambda: self.total_ms("retrieval.enumerate_paths"),
            "retrieval.score_ms": lambda: score(False),
            "retrieval.score_calls": lambda: score(True),
            "retrieval.select_ms": lambda: self.total_ms("retrieval.select_super_paths"),
            "retrieval.render_ms": lambda: self.total_ms("retrieval.contextualize"),
            "retrieval.paths_enumerated": lambda: self.info_sum(
                "retrieval.enumerate_paths", "n") / n,
            "retrieval.selected_per_enumerated": lambda: self.info_sum(
                "retrieval.select_super_paths", "n") / self.info_sum(
                "retrieval.enumerate_paths", "n"),
            "conflict.resolve_ms": lambda: self.total_ms("conflict.resolve"),
            "conflict.parametric_ms": lambda: self.total_ms("conflict.parametric_baseline"),
            "conflict.entropy_ms": lambda: self.total_ms("conflict.mean_token_entropy"),
            "conflict.paths_probed": lambda: resolve_info("probed") / n,
            "conflict.corrective_share": lambda: resolve_info("corrective") / resolve_info(
                "probed"),
            "conflict.fallback_share": fallback_share,
            "pipeline.query_ms": lambda: self.total_ms(QUERY),
            "pipeline.self_ms": lambda: self.self_ms(QUERY),
            "evaluation.run_ms": lambda: self.total_ms("evaluation.run_eval"),
            "evaluation.cpr_ms": lambda: self.total_ms("evaluation.cpr"),
            "evaluation.write_ms": lambda: self.total_ms(
                "evaluation.write_results_csv") + self.total_ms(
                "evaluation.write_summary_json"),
            "setup.load_dataset_ms": lambda: self.setup_ms("evaluation.load_dataset"),
            "setup.build_gateway_ms": lambda: self.setup_ms("pipeline.build_gateway"),
            "trace.overhead_share": lambda: overhead_share,
        }
        out: dict[str, tuple[float | None, str]] = {}
        for name, fn in table.items():
            try:
                out[name] = (float(fn()), "")
            except Unavailable as exc:
                out[name] = (None, str(exc))
        return out

    def query_p50_s(self) -> float:
        return statistics.median(s.end - s.start for s in self.spans(QUERY))

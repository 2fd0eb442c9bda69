"""Entropy-based conflict detection and resolution.

The model's uncertainty is measured as mean per-token Shannon entropy (bits)
over the top-k candidate distribution of each generated answer token. Paths
whose entropy delta against the parametric baseline exceeds the threshold
are corrective: they contradict what the model believes and become the
context for the final answer. Resolution reads the question and the paths
from the query's ``QueryTrace`` and writes its report, answer, fallback and
final context onto it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Sequence, TypeVar

from .config import FALLBACK_NONE, FALLBACK_RAW_CONTEXT, FALLBACK_TOP_DELTA, PipelineConfig
from .errors import EmptySequence, FallbackExhausted, ValidationError
from .gateway import GenerationResult, ModelGateway, TokenLogprobs, ask, gather
from .prompts import ANSWER_AUGMENTED, ANSWER_PARAMETRIC, render

if TYPE_CHECKING:
    from .pipeline import QueryTrace

T = TypeVar("T")

# Separates concatenated corrective contexts in the final prompt.
CONTEXT_DELIMITER = "\n-----\n"


@dataclass(frozen=True)
class PathEntropy:
    """Entropy measurement for one candidate context."""

    index: int
    h_aug: float
    delta_h: float
    corrective: bool


@dataclass
class EntropyReport:
    """Audit record of one conflict-resolution round."""

    h_param: float
    per_path: list[PathEntropy]
    tau: float
    parametric_answer: str
    augmented_answers: list[str]

    def corrective_indexes(self) -> list[int]:
        return [p.index for p in self.per_path if p.corrective]


def _entropy_bits(logprobs: tuple[float, ...]) -> float:
    """Shannon entropy (bits) of one position's renormalized candidates."""
    top = max(logprobs)
    weights = [math.exp(lp - top) for lp in logprobs]
    total = math.fsum(weights)
    return -math.fsum(p * math.log2(p) for p in (w / total for w in weights) if p > 0.0)


def mean_token_entropy(tokens: TokenLogprobs) -> float:
    """Mean Shannon entropy (bits) over per-position candidate distributions.

    Candidate probabilities are renormalized over the returned top-k set at
    each position before the entropy sum, so the value is well defined and
    bounded by log2 of the candidate count. 0 * log 0 counts as 0. Every sum
    is a correctly rounded ``math.fsum``, so the value does not depend on the
    order of the positions or of their candidates.
    """
    if len(tokens) == 0:
        raise EmptySequence("mean_token_entropy: no token positions")
    return math.fsum(_entropy_bits(pos.logprobs) for pos in tokens.positions) / len(tokens)


def _generate(
    query: str, context: str | None, gateway: ModelGateway, cfg: PipelineConfig
) -> GenerationResult:
    if context is None:
        prompt = render(ANSWER_PARAMETRIC, question=query)
    else:
        prompt = render(ANSWER_AUGMENTED, context=context, question=query)
    return ask(gateway, prompt, cfg, cfg.temperature)


def plain_answer(
    query: str, context: str | None, gateway: ModelGateway, cfg: PipelineConfig
) -> str:
    """Answer from parametric knowledge (context None) or the context, no entropy."""
    return _generate(query, context, gateway, cfg).text


def _answer(
    query: str, context: str | None, gateway: ModelGateway, cfg: PipelineConfig
) -> tuple[str, float]:
    result = _generate(query, context, gateway, cfg)
    return result.text, mean_token_entropy(result.tokens)


def parametric_baseline(
    query: str, gateway: ModelGateway, cfg: PipelineConfig
) -> tuple[str, float]:
    """Answer from parametric knowledge only; returns (answer, entropy).

    The prompt asks for a bare answer, so the generated span is the answer
    and the entropy is computed over exactly those tokens.
    """
    return _answer(query, None, gateway, cfg)


def filter_corrective(
    paths: Sequence[T], deltas: Sequence[float], tau: float
) -> list[T]:
    """Exactly the paths whose entropy delta strictly exceeds tau, in order."""
    if len(paths) != len(deltas):
        raise ValidationError("filter_corrective: paths and deltas differ in length")
    return [path for path, delta in zip(paths, deltas) if delta > tau]


def _probe(
    query: str,
    contexts: Sequence[str],
    gateway: ModelGateway,
    cfg: PipelineConfig,
    baseline: tuple[str, float] | None = None,
) -> EntropyReport:
    """Each context's entropy delta against the parametric baseline: ``baseline``,
    the (answer, entropy) asked for already, else the gather's first."""
    calls = [partial(_answer, query, c, gateway, cfg) for c in contexts]
    if baseline is None:
        calls.insert(0, partial(parametric_baseline, query, gateway, cfg))
    measured = gather(calls, cfg.parallelism)
    parametric_answer, h_param = baseline or measured.pop(0)

    tau = cfg.effective_tau
    deltas = [h_aug - h_param for _ans, h_aug in measured]
    chosen = set(filter_corrective(range(len(measured)), deltas, tau))
    return EntropyReport(
        h_param=h_param,
        per_path=[
            PathEntropy(index=i, h_aug=h_aug, delta_h=deltas[i], corrective=i in chosen)
            for i, (_ans, h_aug) in enumerate(measured)
        ],
        tau=tau,
        parametric_answer=parametric_answer,
        augmented_answers=[ans for ans, _ in measured],
    )


def entropy_filtered_response(
    trace: QueryTrace,
    contexts: Sequence[str],
    gateway: ModelGateway,
    cfg: PipelineConfig,
    raw_context: str | None = None,
    filtered: bool = True,
    baseline: tuple[str, float] | None = None,
) -> QueryTrace:
    """Answer ``trace.question`` from the corrective ``contexts``; sets the
    trace's ``report``, ``response``, ``fallback_used`` and ``final_context``.

    Shared by path-based resolution and the knowledge-graph-free ablation,
    which filters raw chunks: ``report`` indexes ``contexts``. Unfiltered, no
    probe is made, every context counts as corrective and the trace gets no
    report; the fallback rule is the same. At temperature 0 a final context
    equal to a probed one takes that probe's answer, as the final request
    would be the same one. ``baseline`` goes to the probe.
    """
    if not contexts and not raw_context:
        raise FallbackExhausted(
            "no candidate contexts and no raw context to fall back to"
        )

    if filtered:
        report = _probe(trace.question, contexts, gateway, cfg, baseline)
        corrective = report.corrective_indexes()
    else:
        report, corrective = None, list(range(len(contexts)))
    if corrective:
        final_context = CONTEXT_DELIMITER.join(contexts[i] for i in corrective)
        fallback_used = FALLBACK_NONE
    # Configured fallback first, then the other; the guard above leaves one.
    elif contexts and (cfg.fallback == FALLBACK_TOP_DELTA or not raw_context):
        best = max(report.per_path, key=lambda p: p.delta_h)
        final_context = contexts[best.index]
        fallback_used = FALLBACK_TOP_DELTA
    else:
        final_context = raw_context
        fallback_used = FALLBACK_RAW_CONTEXT

    if report is not None and cfg.temperature == 0 and final_context in contexts:
        response = report.augmented_answers[contexts.index(final_context)]
    else:
        response = plain_answer(trace.question, final_context, gateway, cfg)
    trace.report, trace.response = report, response
    trace.fallback_used, trace.final_context = fallback_used, final_context
    return trace


def resolve(
    trace: QueryTrace,
    gateway: ModelGateway,
    cfg: PipelineConfig,
    raw_context: str | None = None,
    baseline: tuple[str, float] | None = None,
) -> QueryTrace:
    """Full conflict resolution over the trace's selected paths, ``p_super``.

    Computes the parametric baseline unless ``baseline`` holds it already,
    measures each path's entropy delta, keeps the strictly-above-threshold
    paths as corrective context, and generates the final response from them
    (or from the configured fallback when no path crosses the threshold), all
    on the trace it returns.
    """
    for path in trace.p_super:
        if path.rendered_context is None:
            raise ValidationError("resolve: every path needs a rendered context")
    contexts = [path.rendered_context for path in trace.p_super]
    return entropy_filtered_response(trace, contexts, gateway, cfg, raw_context,
                                     baseline=baseline)

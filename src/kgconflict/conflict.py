"""Entropy-based conflict detection and resolution.

The model's uncertainty is measured as mean per-token Shannon entropy (bits)
over the top-k candidate distribution of each generated answer token. Paths
whose entropy delta against the parametric baseline exceeds the threshold
are corrective: they contradict what the model believes and become the
context for the final answer.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence, TypeVar

import numpy as np

from .errors import EmptySequence, FallbackExhausted, ValidationError, require
from .gateway import GenerationRequest, GenerationResult, ModelGateway, TokenLogprobs
from .prompts import ANSWER_AUGMENTED, ANSWER_PARAMETRIC, render
from .retrieval import ReasoningPath

T = TypeVar("T")

# Separates concatenated corrective contexts in the final prompt.
CONTEXT_DELIMITER = "\n-----\n"

FALLBACK_NONE = "none"
FALLBACK_TOP_DELTA = "top_delta"
FALLBACK_RAW_CONTEXT = "raw_context"
FALLBACKS = (FALLBACK_TOP_DELTA, FALLBACK_RAW_CONTEXT)  # the configurable ones


@dataclass(frozen=True)
class ResolutionConfig:
    """Generation and filtering knobs for the conflict stage."""

    tau: float = 1.0
    fallback: str = FALLBACK_TOP_DELTA
    logprob_top_k: int = 10
    max_tokens: int = 256
    temperature: float = 0.0
    model_id: str | None = None

    def __post_init__(self) -> None:
        require(math.isfinite(self.tau), "resolution.tau", "finite", self.tau)
        if self.fallback not in FALLBACKS:
            raise ValidationError(
                f"resolution.fallback: unknown value {self.fallback!r}"
            )
        require(self.logprob_top_k >= 1, "resolution.logprob_top_k", ">= 1",
                self.logprob_top_k)
        require(self.max_tokens >= 1, "resolution.max_tokens", ">= 1", self.max_tokens)
        require(0 <= self.temperature < math.inf, "resolution.temperature",
                "finite and >= 0", self.temperature)


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


@dataclass
class ResolutionOutcome:
    response: str
    corrective_paths: list[ReasoningPath]
    fallback_used: str
    report: EntropyReport
    final_context: str = ""


def mean_token_entropy(tokens: TokenLogprobs) -> float:
    """Mean Shannon entropy (bits) over per-position candidate distributions.

    Candidate probabilities are renormalized over the returned top-k set at
    each position before the entropy sum, so the value is well defined and
    bounded by log2 of the candidate count. 0 * log 0 counts as 0.
    """
    if len(tokens) == 0:
        raise EmptySequence("mean_token_entropy: no token positions")
    per_position = []
    for pos in tokens.positions:
        if not pos.candidates:
            raise EmptySequence("mean_token_entropy: position with no candidates")
        logprobs = np.array([c.logprob for c in pos.candidates], dtype=np.float64)
        weights = np.exp(logprobs - logprobs.max())
        probs = weights / weights.sum()
        nonzero = probs > 0.0
        per_position.append(-float(np.sum(probs[nonzero] * np.log2(probs[nonzero]))))
    return float(np.mean(per_position))


def _generate(
    query: str, context: str | None, gateway: ModelGateway, cfg: ResolutionConfig
) -> GenerationResult:
    if context is None:
        prompt = render(ANSWER_PARAMETRIC, question=query)
    else:
        prompt = render(ANSWER_AUGMENTED, context=context, question=query)
    return gateway.generate(
        GenerationRequest(
            prompt=prompt,
            temperature=cfg.temperature,
            max_tokens=cfg.max_tokens,
            logprob_top_k=cfg.logprob_top_k,
            model_id=cfg.model_id,
        )
    )


def plain_answer(
    query: str, context: str | None, gateway: ModelGateway, cfg: ResolutionConfig
) -> str:
    """Answer from parametric knowledge (context None) or the context, no entropy."""
    return _generate(query, context, gateway, cfg).text


def _answer(
    query: str, context: str | None, gateway: ModelGateway, cfg: ResolutionConfig
) -> tuple[str, float]:
    result = _generate(query, context, gateway, cfg)
    return result.text, mean_token_entropy(result.tokens)


def parametric_baseline(
    query: str, gateway: ModelGateway, cfg: ResolutionConfig
) -> tuple[str, float]:
    """Answer from parametric knowledge only; returns (answer, entropy).

    The prompt asks for a bare answer, so the generated span is the answer
    and the entropy is computed over exactly those tokens.
    """
    return _answer(query, None, gateway, cfg)


def augmented_entropy(
    query: str, path: ReasoningPath, gateway: ModelGateway, cfg: ResolutionConfig
) -> tuple[str, float]:
    """Answer conditioned on one rendered path; returns (answer, entropy)."""
    if path.rendered_context is None:
        raise ValidationError("augmented_entropy: path has no rendered context")
    return _answer(query, path.rendered_context, gateway, cfg)


def filter_corrective(
    paths: Sequence[T], deltas: Sequence[float], tau: float
) -> list[T]:
    """Exactly the paths whose entropy delta strictly exceeds tau, in order."""
    if len(paths) != len(deltas):
        raise ValidationError("filter_corrective: paths and deltas differ in length")
    return [path for path, delta in zip(paths, deltas) if delta > tau]


def entropy_filtered_response(
    query: str,
    contexts: Sequence[str],
    gateway: ModelGateway,
    cfg: ResolutionConfig,
    raw_context: str | None = None,
    parallelism: int = 1,
) -> ResolutionOutcome:
    """Run the conflict loop over arbitrary context strings.

    Shared by path-based resolution and the knowledge-graph-free ablation,
    which filters raw chunks instead of rendered paths. The outcome has no
    corrective paths: ``report.corrective_indexes()`` index ``contexts``.
    """
    if not contexts and not raw_context:
        raise FallbackExhausted(
            "no candidate contexts and no raw context to fall back to"
        )

    parametric_answer, h_param = parametric_baseline(query, gateway, cfg)

    if parallelism > 1 and len(contexts) > 1:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            measured = list(
                pool.map(lambda c: _answer(query, c, gateway, cfg), contexts)
            )
    else:
        measured = [_answer(query, c, gateway, cfg) for c in contexts]

    deltas = [h_aug - h_param for _ans, h_aug in measured]
    chosen = set(filter_corrective(range(len(measured)), deltas, cfg.tau))
    per_path = [
        PathEntropy(index=i, h_aug=h_aug, delta_h=deltas[i], corrective=i in chosen)
        for i, (_ans, h_aug) in enumerate(measured)
    ]
    report = EntropyReport(
        h_param=h_param,
        per_path=per_path,
        tau=cfg.tau,
        parametric_answer=parametric_answer,
        augmented_answers=[ans for ans, _ in measured],
    )

    corrective = report.corrective_indexes()
    if corrective:
        final_context = CONTEXT_DELIMITER.join(contexts[i] for i in corrective)
        fallback_used = FALLBACK_NONE
    # Configured fallback first, then the other; the guard above leaves one.
    elif contexts and (cfg.fallback == FALLBACK_TOP_DELTA or not raw_context):
        best = max(per_path, key=lambda p: p.delta_h)
        final_context = contexts[best.index]
        fallback_used = FALLBACK_TOP_DELTA
    else:
        final_context = raw_context
        fallback_used = FALLBACK_RAW_CONTEXT

    return ResolutionOutcome(
        response=plain_answer(query, final_context, gateway, cfg),
        corrective_paths=[],
        fallback_used=fallback_used,
        report=report,
        final_context=final_context,
    )


def resolve(
    query: str,
    p_super: Sequence[ReasoningPath],
    gateway: ModelGateway,
    cfg: ResolutionConfig,
    raw_context: str | None = None,
    parallelism: int = 1,
) -> ResolutionOutcome:
    """Full conflict resolution over the selected reasoning paths.

    Computes the parametric baseline, measures each path's entropy delta,
    keeps the strictly-above-threshold paths as corrective context, and
    generates the final response from them (or from the configured fallback
    when no path crosses the threshold).
    """
    for path in p_super:
        if path.rendered_context is None:
            raise ValidationError("resolve: every path needs a rendered context")
    contexts = [path.rendered_context for path in p_super]
    outcome = entropy_filtered_response(
        query, contexts, gateway, cfg,
        raw_context=raw_context, parallelism=parallelism,
    )
    outcome.corrective_paths = [p_super[i] for i in outcome.report.corrective_indexes()]
    return outcome

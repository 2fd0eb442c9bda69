"""Model gateway: request/response types and the deterministic mock backend.

A gateway exposes two operations: ``generate`` (text plus per-token top-k
candidate log-probabilities) and ``embed`` (dense vectors). Every pipeline
stage asks the model through ``ask``. The mock backend answers both from a
JSON Lines script so the whole pipeline runs offline and bit-identically
across runs.
"""

from __future__ import annotations

import hashlib
import math
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Protocol, Sequence, TypeVar

import numpy as np

from .config import PipelineConfig
from .errors import EmptyInput, ParseError, ScriptMiss, ValidationError, require
from .jsonio import read_json_lines

# Raw top-k probability masses may legitimately sum to slightly above 1
# through float rounding; anything above this is a malformed distribution.
PROB_MASS_TOLERANCE = 1e-6

DEFAULT_MOCK_EMBEDDING_DIM = 64

# Helper threads for every gather, started only as they are needed. run_eval
# keeps up to p queries in flight, each gathering with up to p - 1 helpers, so
# 32 covers p <= 6; above that the callers run what no helper takes.
GATHER_HELPERS = 32
_HELPERS = ThreadPoolExecutor(GATHER_HELPERS, thread_name_prefix="gather")

T = TypeVar("T")


@dataclass(frozen=True)
class GenerationRequest:
    """A single text-generation call.

    ``logprob_top_k`` controls how many candidate tokens the backend must
    report per generated position; the entropy metric is computed over that
    candidate set.
    """

    prompt: str
    temperature: float = 0.0
    max_tokens: int = 256
    logprob_top_k: int = 10
    model_id: str | None = None

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ValidationError("GenerationRequest.prompt: must be non-empty")
        require(0 <= self.temperature < math.inf, "GenerationRequest.temperature",
                "finite and >= 0", self.temperature)
        require(self.max_tokens >= 1, "GenerationRequest.max_tokens", ">= 1",
                self.max_tokens)
        require(self.logprob_top_k >= 1, "GenerationRequest.logprob_top_k", ">= 1",
                self.logprob_top_k)


@dataclass(frozen=True)
class TokenCandidate:
    token: str
    logprob: float  # natural log of the token probability, <= 0


@dataclass(frozen=True, init=False)
class TokenPosition:
    """One generated position: the chosen token and its top-k candidates as two
    columns, the candidate ``tokens`` and their natural-log ``logprobs``.

    Built from the columns or, equally, from ``candidates=`` pairs. Checked
    when built, so every position is a distribution: a non-empty candidate
    list, as many logprobs as tokens, each logprob finite and <= 0, a total
    exponentiated mass <= 1 + tolerance, and the chosen token among the
    candidates.
    """

    token: str
    tokens: tuple[str, ...]
    logprobs: tuple[float, ...]

    def __init__(self, token: str, tokens: tuple[str, ...] = (),
                 logprobs: tuple[float, ...] = (), *,
                 candidates: Sequence[TokenCandidate] | None = None) -> None:
        if candidates is not None:
            if tokens or logprobs:
                raise ValidationError("give candidates or the columns, not both")
            tokens = tuple(c.token for c in candidates)
            logprobs = tuple(c.logprob for c in candidates)
        if not tokens:
            raise ValidationError("empty candidate list")
        if len(tokens) != len(logprobs):
            raise ValidationError(
                f"{len(tokens)} candidate tokens but {len(logprobs)} logprobs"
            )
        mass = 0.0
        for cand_token, logprob in zip(tokens, logprobs):
            if not -math.inf < logprob <= 0.0:  # false for NaN and both infinities
                raise ValidationError(
                    f"candidate {cand_token!r} has invalid logprob {logprob}"
                )
            mass += math.exp(logprob)
        if mass > 1.0 + PROB_MASS_TOLERANCE:
            raise ValidationError(f"candidate masses sum to {mass:.9f} > 1")
        if token not in tokens:
            raise ValidationError(
                f"chosen token {token!r} not among its own candidates"
            )
        object.__setattr__(self, "token", token)
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "logprobs", logprobs)

    @cached_property
    def candidates(self) -> tuple[TokenCandidate, ...]:
        """The columns as (token, logprob) pairs, built on first use."""
        return tuple(map(TokenCandidate, self.tokens, self.logprobs))

    def chosen_logprob(self) -> float:
        """The logprob of the first candidate equal to the chosen token."""
        return self.logprobs[self.tokens.index(self.token)]


@dataclass(frozen=True)
class TokenLogprobs:
    """Per-position candidate distributions for a generated sequence."""

    positions: tuple[TokenPosition, ...]

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class GenerationResult:
    text: str
    tokens: TokenLogprobs
    model_id: str


@dataclass(frozen=True)
class EmbeddingVector:
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, self.values)):
            raise ValidationError("EmbeddingVector: non-finite component")


class ModelGateway(Protocol):
    """Uniform interface over generative + embedding backends."""

    def generate(self, req: GenerationRequest) -> GenerationResult: ...

    def embed(self, texts: list[str]) -> list[EmbeddingVector]: ...


def ask(
    gateway: ModelGateway, prompt: str, cfg: PipelineConfig, temperature: float = 0.0
) -> GenerationResult:
    """Send one prompt with the config's ``max_tokens`` and ``logprob_top_k``.

    Structured calls (extraction, its repair, key elements) keep temperature
    0; only the answer calls pass ``cfg.temperature``.
    """
    return gateway.generate(GenerationRequest(
        prompt=prompt, temperature=temperature, max_tokens=cfg.max_tokens,
        logprob_top_k=cfg.logprob_top_k,
    ))


def gather(calls: Sequence[Callable[[], T]], parallelism: int) -> list[T]:
    """Run zero-argument calls, at most ``parallelism`` at once; results by index.

    The calling thread runs the first call and takes the next free one until
    none is left; up to ``parallelism`` - 1 helpers from one shared pool take
    calls beside it. Every call runs, and the lowest-index failure is raised.
    At ``parallelism`` 1, or for one call, they run in order on the calling
    thread. A call may gather in turn: each caller works through its own
    calls, so a busy pool narrows the overlap but cannot stall a gather.
    """
    if parallelism == 1 or len(calls) <= 1:
        return [call() for call in calls]
    results: list = [None] * len(calls)
    errors: dict[int, Exception] = {}
    rest = iter(range(1, len(calls)))
    lock = threading.Lock()

    def take() -> int | None:
        with lock:
            return next(rest, None)

    def run(i: int | None) -> None:
        while i is not None:
            try:
                results[i] = calls[i]()
            except Exception as exc:
                errors[i] = exc
            i = take()

    helpers = [_HELPERS.submit(lambda: run(take()))
               for _ in range(min(parallelism, len(calls)) - 1)]
    try:
        run(0)
    finally:
        # A helper that has not started would find no call left.
        for helper in helpers:
            if not helper.cancel():
                helper.result()
    if errors:
        raise errors[min(errors)]
    return results


def _check_texts(texts: list[str]) -> None:
    if not texts:
        raise EmptyInput("embed: empty input list")
    for t in texts:
        if not t:
            raise EmptyInput("embed: empty text in input list")


@dataclass(frozen=True)
class _ScriptEntry:
    kind: str  # "generate" | "embed"
    match: str
    pattern: re.Pattern | None  # set for a regex entry, else None
    text: str = ""
    tokens: TokenLogprobs | None = None
    vector: tuple[float, ...] = ()


class _ScriptIndex:
    """Finds the first script entry, in script order, that matches a text.

    Exact entries are indexed by their text (the first of equal ones wins),
    each with the number of regex entries placed before it. A lookup
    searches only those regexes before taking the exact hit, and every
    regex on a miss, so a call costs O(regexes before the hit), not
    O(entries).
    """

    def __init__(self, entries: list[_ScriptEntry]) -> None:
        self._regexes = tuple(e for e in entries if e.pattern is not None)
        self._exact: dict[str, tuple[int, _ScriptEntry]] = {}
        before = 0
        for entry in entries:
            if entry.pattern is not None:
                before += 1
            else:
                self._exact.setdefault(entry.match, (before, entry))

    def first_match(self, text: str) -> _ScriptEntry | None:
        before, hit = self._exact.get(text, (len(self._regexes), None))
        for entry in self._regexes[:before]:
            if entry.pattern.search(text) is not None:
                return entry
        return hit


def _hash_unit_vector(text: str, dim: int) -> np.ndarray:
    """Deterministic pseudo-random unit vector derived from the text bytes."""
    digest = hashlib.sha256(text.encode("utf-8", "surrogatepass")).digest()
    seed = int.from_bytes(digest[:8], "big")
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(dim)
    return vec / np.sqrt((vec * vec).sum())  # pairwise sum, not a BLAS kernel


class MockGateway:
    """Scripted backend: a pure function of (script, request).

    Generate requests are answered by the first script entry whose ``match``
    hits the prompt (exact string, or ``re.search`` when the entry sets
    ``regex``). Embeddings come from script overrides when present, otherwise
    from hash-seeded deterministic unit vectors. The instance is immutable
    after construction and safe to share across threads.

    Tokenization rule: the concatenation of the chosen tokens equals the
    response text exactly (validated at load).
    """

    def __init__(
        self, entries: list[_ScriptEntry], embedding_dim: int = DEFAULT_MOCK_EMBEDDING_DIM
    ) -> None:
        self._generate_index = _ScriptIndex([e for e in entries if e.kind == "generate"])
        self._embed_index = _ScriptIndex([e for e in entries if e.kind == "embed"])
        self._dim = embedding_dim

    def generate(self, req: GenerationRequest) -> GenerationResult:
        entry = self._generate_index.first_match(req.prompt)
        if entry is not None:
            assert entry.tokens is not None
            return GenerationResult(
                text=entry.text,
                tokens=entry.tokens,
                model_id=req.model_id or "mock-chat",
            )
        preview = req.prompt if len(req.prompt) <= 120 else req.prompt[:117] + "..."
        raise ScriptMiss(f"no script entry matches prompt: {preview!r}")

    def embed(self, texts: list[str]) -> list[EmbeddingVector]:
        _check_texts(texts)
        out = []
        for text in texts:
            entry = self._embed_index.first_match(text)
            if entry is not None:
                vec = entry.vector
            else:
                vec = tuple(_hash_unit_vector(text, self._dim).tolist())
            out.append(EmbeddingVector(values=vec))
        return out


def _parse_tokens(raw: object, line_no: int) -> TokenLogprobs:
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"script line {line_no}: 'tokens' must be a non-empty array")
    positions = []
    for i, raw_pos in enumerate(raw, start=1):
        if not isinstance(raw_pos, dict):
            raise ParseError(f"script line {line_no}: token entry must be an object")
        token = raw_pos.get("token")
        raw_cands = raw_pos.get("candidates")
        if not isinstance(token, str) or not isinstance(raw_cands, list) or not raw_cands:
            raise ParseError(
                f"script line {line_no}: token entry needs 'token' and non-empty 'candidates'"
            )
        tokens, logprobs = [], []
        for raw_cand in raw_cands:
            if (
                not isinstance(raw_cand, (list, tuple))
                or len(raw_cand) != 2
                or not isinstance(raw_cand[0], str)
                or type(raw_cand[1]) not in (int, float)  # a bool is no number
            ):
                raise ParseError(
                    f"script line {line_no}: candidate must be [token, logprob]"
                )
            tokens.append(raw_cand[0])
            logprobs.append(float(raw_cand[1]))
        try:
            positions.append(TokenPosition(token, tuple(tokens), tuple(logprobs)))
        except ValidationError as exc:
            raise ParseError(f"script line {line_no}: token position {i}: {exc}") from exc
    return TokenLogprobs(positions=tuple(positions))


def _parse_entry(obj: dict, line_no: int) -> _ScriptEntry:
    kind = obj.get("kind")
    if kind not in ("generate", "embed"):
        raise ParseError(f"script line {line_no}: 'kind' must be 'generate' or 'embed'")
    match = obj.get("match")
    if not isinstance(match, str):
        raise ParseError(f"script line {line_no}: 'match' must be a string")
    regex = obj.get("regex", False)
    if not isinstance(regex, bool):
        raise ParseError(f"script line {line_no}: 'regex' must be a boolean")
    pattern = None
    if regex:
        try:
            pattern = re.compile(match)
        except (re.error, RecursionError) as exc:  # RecursionError: nested too deeply
            raise ParseError(f"script line {line_no}: bad regex: {exc}") from exc
    response = obj.get("response")
    if not isinstance(response, dict):
        raise ParseError(f"script line {line_no}: 'response' must be an object")

    if kind == "generate":
        text = response.get("text")
        if not isinstance(text, str):
            raise ParseError(f"script line {line_no}: generate response needs 'text'")
        tokens = _parse_tokens(response.get("tokens"), line_no)
        joined = "".join(pos.token for pos in tokens.positions)
        if joined != text:
            raise ParseError(
                f"script line {line_no}: chosen tokens concatenate to {joined!r}, "
                f"which does not reconstruct text {text!r}"
            )
        return _ScriptEntry(kind=kind, match=match, pattern=pattern, text=text,
                            tokens=tokens)

    vector = response.get("vector")
    if (
        not isinstance(vector, list)
        or not vector
        or not all(type(v) in (int, float) and math.isfinite(v) for v in vector)
    ):
        raise ParseError(
            f"script line {line_no}: embed response needs a non-empty finite 'vector'"
        )
    return _ScriptEntry(kind=kind, match=match, pattern=pattern,
                        vector=tuple(float(v) for v in vector))


def load_mock_script(path: str | Path) -> MockGateway:
    """Load a JSON Lines mock script into an immutable backend.

    Each line is an object ``{"kind": "generate"|"embed", "match": str,
    "regex": bool (optional, default false), "response": {...}}``. Generate
    responses carry ``text`` plus ``tokens`` (chosen token + candidate
    ``[token, logprob]`` pairs, natural-log); embed responses carry
    ``vector``. Blank lines are ignored. Raises ParseError with the
    offending line number.
    """
    entries: list[_ScriptEntry] = []
    for line_no, obj in read_json_lines(path, "script line"):
        if not isinstance(obj, dict):
            raise ParseError(f"script line {line_no}: entry must be an object")
        try:
            entries.append(_parse_entry(obj, line_no))
        except OverflowError as exc:  # an integer too large for a float
            raise ParseError(f"script line {line_no}: {exc}") from None

    dims = {len(e.vector) for e in entries if e.kind == "embed"}
    if len(dims) > 1:
        raise ParseError(
            f"embed override vectors disagree on dimension: {sorted(dims)}"
        )
    dim = dims.pop() if dims else DEFAULT_MOCK_EMBEDDING_DIM
    return MockGateway(entries, embedding_dim=dim)

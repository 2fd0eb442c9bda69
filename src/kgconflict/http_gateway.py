"""OpenAI-compatible HTTP backend.

Speaks POST {base}/chat/completions with logprobs enabled and POST
{base}/embeddings. The API key is read from the MODEL_API_KEY environment
variable only; it never appears in config files.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from http.client import HTTPException
from urllib.request import HTTPErrorProcessor, Request, build_opener

from .errors import BackendUnavailable, LogprobsUnsupported, ParseError, ValidationError
from .gateway import (
    PROB_MASS_TOLERANCE,
    EmbeddingVector,
    GenerationRequest,
    GenerationResult,
    TokenLogprobs,
    TokenPosition,
    _check_texts,
)

log = logging.getLogger(__name__)

API_KEY_ENV = "MODEL_API_KEY"

# HTTP statuses worth retrying; auth errors are not (a retry cannot fix them).
_RETRYABLE_STATUSES = {408, 429, 500, 502, 503, 504}


class _EveryStatus(HTTPErrorProcessor):  # no status raises, no 3xx is followed
    def http_response(self, request, response):
        return response

    https_response = http_response


_OPENER = build_opener(_EveryStatus)


class HttpGateway:
    """Client for any endpoint speaking the OpenAI chat/embeddings protocol.

    Stateless between calls (a new connection per call), so one instance can
    serve concurrent callers. Transient failures are retried ``max_attempts`` times
    with exponential backoff before raising BackendUnavailable. A 3xx reply is
    never followed, so the API key is never sent on to another host.

    Tokenization note: the response text is taken from message.content and
    the per-token candidates from the logprobs block; their correspondence
    (including whitespace handling) is whatever the server's tokenizer does,
    and is not re-validated here.
    """

    def __init__(
        self,
        base_url: str,
        model_id: str,
        embed_url: str = "",
        embed_model_id: str = "",
        timeout: float = 60.0,
        max_attempts: int = 3,
        backoff: float = 0.5,
    ) -> None:
        # An empty model id is "default"; empty embedding settings take the chat ones.
        self.base_url = base_url.rstrip("/")
        self.model_id = model_id or "default"
        self.embed_url = (embed_url or base_url).rstrip("/")
        self.embed_model_id = embed_model_id or self.model_id
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff = backoff

    def _post(self, url: str, payload: dict) -> dict:
        data = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if api_key := os.environ.get(API_KEY_ENV):
            headers["Authorization"] = f"Bearer {api_key}"
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                with _OPENER.open(Request(url, data, headers), timeout=self.timeout) as resp:
                    status, body = resp.status, resp.read()
            except (OSError, ValueError, HTTPException) as exc:
                last_error = exc
                log.warning("POST %s failed (attempt %d): %s", url, attempt + 1, exc)
                continue
            if status == 200:
                try:
                    return _object(json.loads(body), f"response from {url}")
                except (ValueError, RecursionError) as exc:
                    raise ParseError(f"non-JSON response from {url}: {exc}") from exc
            if status in (401, 403):
                raise BackendUnavailable(f"auth failure from {url}: HTTP {status}")
            last_error = BackendUnavailable(
                f"HTTP {status} from {url}: {body.decode('utf-8', 'replace')[:200]}"
            )
            if status not in _RETRYABLE_STATUSES:
                raise last_error
            log.warning("POST %s returned %d (attempt %d)", url, status, attempt + 1)
        raise BackendUnavailable(
            f"giving up on {url} after {self.max_attempts} attempts: {last_error}"
        )

    def generate(self, req: GenerationRequest) -> GenerationResult:
        payload = {
            "model": req.model_id or self.model_id,
            "messages": [{"role": "user", "content": req.prompt}],
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
            "logprobs": True,
            "top_logprobs": req.logprob_top_k,
        }
        body = self._post(f"{self.base_url}/chat/completions", payload)
        return _parse_chat_response(body, req, self.model_id)

    def embed(self, texts: list[str]) -> list[EmbeddingVector]:
        _check_texts(texts)
        payload = {"model": self.embed_model_id, "input": texts}
        body = self._post(f"{self.embed_url}/embeddings", payload)
        data = body.get("data")
        if not isinstance(data, list) or len(data) != len(texts):
            got = len(data) if isinstance(data, list) else 0
            raise ParseError(f"embeddings response has {got} rows for {len(texts)} inputs")
        rows: list[dict | None] = [None] * len(data)
        for position, row in enumerate(data):
            # A row without an index answers the input at its own position.
            index = _object(row, "embeddings row").get("index", position)
            if type(index) is not int:  # a bool is no index
                raise ParseError(f"embeddings row index {index!r} is not an integer")
            if not 0 <= index < len(rows) or rows[index] is not None:
                raise ParseError(
                    f"embeddings row index {index} is repeated or not below {len(rows)}"
                )
            rows[index] = row
        out = []
        for row in rows:
            values = row.get("embedding")
            if not isinstance(values, list) or not values:
                raise ParseError("embeddings response row lacks 'embedding'")
            out.append(
                EmbeddingVector(values=tuple(_number(v, "embedding value") for v in values))
            )
        dims = {len(v.values) for v in out}
        if len(dims) > 1:
            raise ParseError(f"embedding rows disagree on dimension: {sorted(dims)}")
        return out


def _object(value: object, what: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{what} is not a JSON object")
    return value


def _number(value: object, what: str) -> float:
    """A reply number as a finite float; anything else is a ParseError."""
    try:
        if type(value) in (int, float) and math.isfinite(number := float(value)):
            return number  # a bool is no number
    except OverflowError:
        pass
    raise ParseError(f"{what} {value!r:.40} is not a finite number")


def _parse_chat_response(
    body: dict, req: GenerationRequest, default_model: str
) -> GenerationResult:
    choices = body.get("choices")
    if not isinstance(choices, list) or not choices:
        raise ParseError("chat response has no choices")
    choice = _object(choices[0], "chat response choice")
    if choice.get("finish_reason") == "length":
        raise ParseError(
            "chat response was truncated at max_tokens (finish_reason 'length')"
        )
    message = _object(choice.get("message") or {}, "chat response message")
    text = message.get("content")
    if not isinstance(text, str):
        raise ParseError("chat response choice has no message content")

    logprobs = _object(choice.get("logprobs") or {}, "chat response logprobs")
    content = logprobs.get("content")
    if not isinstance(content, list) or not content:
        raise LogprobsUnsupported(
            "backend returned no per-token logprobs; entropy cannot be computed"
        )

    # Float noise can push a certain token's logprob slightly above 0; one
    # above log(1 + tolerance) breaks the mass bound on its own.
    noise = math.log1p(PROB_MASS_TOLERANCE)
    positions = []
    for i, item in enumerate(content, start=1):
        item = _object(item, "logprobs content entry")
        token = item.get("token")
        if not isinstance(token, str):
            raise ParseError("logprobs content entry lacks token")
        chosen_lp = _number(item.get("logprob"), "logprobs content entry logprob")
        if chosen_lp > noise:
            raise ParseError(f"logprobs content entry logprob {chosen_lp!r} is above 0")
        raw_top = item.get("top_logprobs") or []
        if not isinstance(raw_top, list):
            raise ParseError("logprobs content entry's top_logprobs is not a list")
        cand_tokens, cand_logprobs = [], []
        for cand in raw_top:
            cand = _object(cand, "top_logprobs entry")
            ctok = cand.get("token")
            if not isinstance(ctok, str):
                raise ParseError("top_logprobs entry lacks token")
            clp = _number(cand.get("logprob"), "top_logprobs entry logprob")
            if clp > noise:
                raise ParseError(f"top_logprobs entry logprob {clp!r} is above 0")
            cand_tokens.append(ctok)
            cand_logprobs.append(min(clp, 0.0))  # keeps the sign of -0.0
        if token not in cand_tokens:
            # Guarantee the chosen token carries its own logprob; evict the
            # weakest candidates (a stable sort keeps the first of equals)
            # rather than exceed the top-k length bound.
            if len(cand_tokens) >= req.logprob_top_k:
                kept = sorted(range(len(cand_tokens)), key=cand_logprobs.__getitem__,
                              reverse=True)[: req.logprob_top_k - 1]
                cand_tokens = [cand_tokens[j] for j in kept]
                cand_logprobs = [cand_logprobs[j] for j in kept]
            cand_tokens.append(token)
            cand_logprobs.append(min(chosen_lp, 0.0))
        try:
            positions.append(TokenPosition(token, tuple(cand_tokens), tuple(cand_logprobs)))
        except ValidationError as exc:
            raise ParseError(
                f"chat response logprobs violate invariants: token position {i}: {exc}"
            ) from exc

    return GenerationResult(text=text, tokens=TokenLogprobs(positions=tuple(positions)),
                            model_id=req.model_id or default_model)

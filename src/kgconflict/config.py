"""Pipeline configuration: defaults, file parsing, CLI overrides.

Every setting lives here, once, and every stage reads the one
``PipelineConfig``; this module imports nothing else of the package but
``errors``, so each stage can import it.

Config files are flat ``key = value`` text: one pair per line, ``#`` starts
a comment line, values may be quoted. Every key has a CLI flag twin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import get_args, get_type_hints

from .errors import ValidationError, require, require_type

# Each pipeline mode: where its contexts come from, and whether the entropy
# filter picks among them. Graph paths and raw chunks are candidates, with the
# raw text as the fallback; "raw" answers from the raw text as it is, "none"
# from parametric knowledge alone.
MODE_TABLE = {
    "full": ("paths", True),
    "no_kg": ("segments", True),
    "no_conflict": ("paths", False),
    "standard_rag": ("raw", False),
    "no_rag": ("none", False),
}
MODES = tuple(MODE_TABLE)

DEFAULT_TAU = 1.0
# Model-specific threshold defaults, applied when tau is not set explicitly;
# matched as case-insensitive substrings of the model id.
MODEL_TAU_DEFAULTS = {
    "gpt-4o-mini": 1.0,
    "mistral-7b": 1.0,
    "qwen2.5-7b": 3.0,
}

FALLBACK_NONE = "none"
FALLBACK_TOP_DELTA = "top_delta"
FALLBACK_RAW_CONTEXT = "raw_context"
FALLBACKS = (FALLBACK_TOP_DELTA, FALLBACK_RAW_CONTEXT)  # the configurable ones


@dataclass(frozen=True)
class PipelineConfig:
    # Backends: either a mock script or an OpenAI-compatible endpoint.
    mock_script: str = ""
    model_url: str = ""
    model_id: str = ""
    embed_url: str = ""
    embed_model_id: str = ""
    # Conflict filtering. None means "resolve from the model id table".
    tau: float | None = None
    fallback: str = FALLBACK_TOP_DELTA
    # Generation.
    temperature: float = 0.0
    max_tokens: int = 256
    logprob_top_k: int = 10
    # Graph construction.
    max_segment_tokens: int = 256
    # Orchestration.
    mode: str = "full"
    parallelism: int = 1
    trace: bool = False
    skip_errors: bool = False
    # Retrieval, last so that the CLI lists its flags last.
    alpha: float = 0.5
    beta: float = 0.5
    k_similar: int = 10
    paths_k: int = 10

    def __post_init__(self) -> None:
        for key, hint in _HINTS.items():
            object.__setattr__(self, key, require_type(hint, getattr(self, key), key))
        if self.mode not in MODES:
            raise ValidationError(
                f"mode: {self.mode!r} is not one of {', '.join(MODES)}"
            )
        if self.fallback not in FALLBACKS:
            raise ValidationError(f"fallback: unknown value {self.fallback!r}")
        require(self.temperature >= 0, "temperature", ">= 0", self.temperature)
        require(self.max_tokens >= 1, "max_tokens", ">= 1", self.max_tokens)
        require(self.logprob_top_k >= 1, "logprob_top_k", ">= 1", self.logprob_top_k)
        require(self.max_segment_tokens >= 1, "max_segment_tokens", ">= 1",
                self.max_segment_tokens)
        require(self.parallelism >= 1, "parallelism", ">= 1", self.parallelism)
        require(self.alpha >= 0, "alpha", ">= 0", self.alpha)
        require(self.beta >= 0, "beta", ">= 0", self.beta)
        total = self.alpha + self.beta  # a path's score is at most this
        if total <= 0:
            raise ValidationError("alpha+beta: must be > 0")
        require(math.isfinite(total), "alpha+beta", "finite", total)
        require(self.k_similar >= 1, "k_similar", ">= 1", self.k_similar)
        require(self.paths_k >= 1, "paths_k", ">= 1", self.paths_k)

    @property
    def effective_tau(self) -> float:
        """Explicit tau, else the model-id override table, else 1.0."""
        if self.tau is not None:
            return self.tau
        model = self.model_id.casefold()
        for needle, value in MODEL_TAU_DEFAULTS.items():
            if needle in model:
                return value
        return DEFAULT_TAU


# Each field's declared type, which ``__post_init__`` checks, and each key's
# type for the file parser and the CLI's flags: ``float | None`` (tau) is a
# float key.
_HINTS = get_type_hints(PipelineConfig)
KEY_TYPES = {key: (get_args(hint) or (hint,))[0] for key, hint in _HINTS.items()}
ALL_KEYS = set(KEY_TYPES)
_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce(key: str, raw: str, where: str) -> object:
    """The file's text as the key's type; the type rule judges the result (no ``nan``)."""
    kind = KEY_TYPES[key]
    try:
        value = _BOOL_WORDS[raw.casefold()] if kind is bool else kind(raw)
    except (KeyError, ValueError):  # a str key keeps the text, so it never gets here
        value = raw
    return require_type(_HINTS[key], value, where)


def _read_config_file(path: str | Path) -> dict[str, object]:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, object] = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{line_no}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip().strip("\"'")
        if key not in ALL_KEYS:
            raise ValidationError(f"{path}:{line_no}: unknown key {key!r}")
        values[key] = _coerce(key, raw, f"{path}:{line_no}: {key}")
    return values


def parse_config(
    path: str | Path | None = None, overrides: dict[str, object] | None = None
) -> PipelineConfig:
    """Build a validated config from an optional file plus CLI overrides.

    Override values win over file values; both win over defaults. The config
    checks each value's type and bounds. Raises ValidationError with a
    message that names the key on any bad key, type or bound.
    """
    values = _read_config_file(path) if path is not None else {}
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in ALL_KEYS:
            raise ValidationError(f"override: unknown key {key!r}")
        values[key] = value
    return PipelineConfig(**values)

"""Pipeline configuration: defaults, file parsing, CLI overrides.

Config files are flat ``key = value`` text: one pair per line, ``#`` starts
a comment line, values may be quoted. Every key has a CLI flag twin.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_args, get_type_hints

from .conflict import FALLBACK_TOP_DELTA, ResolutionConfig
from .errors import ValidationError, require
from .retrieval import RetrievalConfig

MODES = ("full", "no_kg", "no_conflict", "standard_rag", "no_rag")

DEFAULT_TAU = 1.0
# Model-specific threshold defaults, applied when tau is not set explicitly;
# matched as case-insensitive substrings of the model id.
MODEL_TAU_DEFAULTS = {
    "gpt-4o-mini": 1.0,
    "mistral-7b": 1.0,
    "qwen2.5-7b": 3.0,
}


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
    # Retrieval.
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    # Orchestration.
    mode: str = "full"
    parallelism: int = 1
    trace: bool = False
    skip_errors: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(
                f"mode: {self.mode!r} is not one of {', '.join(MODES)}"
            )
        self.resolution()  # building it checks the conflict-stage fields
        require(self.max_segment_tokens >= 1, "max_segment_tokens", ">= 1",
                self.max_segment_tokens)
        require(self.parallelism >= 1, "parallelism", ">= 1", self.parallelism)

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

    def resolution(self) -> ResolutionConfig:
        return ResolutionConfig(
            tau=self.effective_tau,
            fallback=self.fallback,
            logprob_top_k=self.logprob_top_k,
            max_tokens=self.max_tokens,
            temperature=self.temperature,
            model_id=self.model_id or None,
        )


# Each flat key's type, from the config fields with retrieval's inlined;
# ``float | None`` (tau) is a float key. The CLI makes one flag per key.
KEY_TYPES = {
    key: (get_args(hint) or (hint,))[0]
    for cls in (PipelineConfig, RetrievalConfig)
    for key, hint in get_type_hints(cls).items()
    if key != "retrieval"
}
_RETRIEVAL_KEYS = {f.name for f in fields(RetrievalConfig)}
ALL_KEYS = set(KEY_TYPES)
_EXPECTS = {bool: "a boolean", float: "a number", int: "an integer", str: "a string"}


def _coerce(key: str, raw: str, where: str) -> object:
    kind = KEY_TYPES[key]
    if kind is bool:
        lowered = raw.casefold()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
    else:
        try:
            return kind(raw)  # a str key keeps the text as it is
        except ValueError:
            pass
    raise ValidationError(f"{where}: {key} expects {_EXPECTS[kind]}, got {raw!r}")


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
        values[key] = _coerce(key, raw, f"{path}:{line_no}")
    return values


def parse_config(
    path: str | Path | None = None, overrides: dict[str, object] | None = None
) -> PipelineConfig:
    """Build a validated config from an optional file plus CLI overrides.

    Override values win over file values; both win over defaults. An
    override has its key's type, an int serving for a float. Raises
    ValidationError with a field-path message on any bad key, type or bound.
    """
    values = _read_config_file(path) if path is not None else {}
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in ALL_KEYS:
            raise ValidationError(f"override: unknown key {key!r}")
        kind = KEY_TYPES[key]
        if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
            value = float(value)  # as a config file or a flag gives it
        if type(value) is not kind:
            raise ValidationError(
                f"override: {key} expects {_EXPECTS[kind]}, got {value!r}"
            )
        values[key] = value
    retrieval = {key: values.pop(key) for key in _RETRIEVAL_KEYS & values.keys()}
    return PipelineConfig(retrieval=RetrievalConfig(**retrieval), **values)

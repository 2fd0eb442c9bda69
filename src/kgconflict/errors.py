"""Shared exception types for the pipeline, and the field checks that raise them."""

import sys
from dataclasses import fields
from functools import cache
from typing import get_args, get_type_hints

TYPE_NAMES = {bool: "a boolean", float: "a number", int: "an integer", str: "a string"}
_type_hints = cache(get_type_hints)


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class BackendUnavailable(PipelineError):
    """Model backend could not be reached (network, auth, exhausted retries)."""


class LogprobsUnsupported(PipelineError):
    """Backend cannot return per-token candidate log-probabilities.

    Entropy-based conflict detection is meaningless without them, so callers
    must treat this as a hard failure.
    """


class ScriptMiss(PipelineError):
    """Mock backend has no entry matching the request."""


class ParseError(PipelineError):
    """Malformed input: mock script line, model output, or dataset record."""


class ExtractionParseError(ParseError):
    """Triple-extraction model output violates the required schema."""


class EmptyInput(PipelineError):
    """An operation received an empty input where content is required."""


class EmptyContent(EmptyInput):
    """Segmentation was asked to split empty or whitespace-only content."""


class EmptySequence(EmptyInput):
    """A token-level metric was asked to score an empty token sequence."""


class DanglingReference(PipelineError):
    """A path or triple references an id that no longer resolves in the graph."""


class MissingGoldSpans(PipelineError):
    """CPR requires gold_spans on the record, and they are absent."""


class DuplicateId(PipelineError):
    """Dataset contains more than one record with the same id."""


class FallbackExhausted(PipelineError):
    """No corrective paths, no candidate paths, and no raw context to fall back to."""


class ValidationError(PipelineError):
    """Configuration or request field violates its declared bounds."""


class SchemaVersionMismatch(PipelineError):
    """Persisted artifact was written with an unknown schema version."""


def require(ok: bool, where: str, rule: str, value: object) -> None:
    """Raise ``ValidationError("<where>: must be <rule>, got <value>")`` unless ok."""
    if not ok:
        raise ValidationError(f"{where}: must be {rule}, got {value}")


def require_field_types(obj: object) -> None:
    """Check each field of a frozen dataclass against its declared type.

    The type must match exactly, so a bool is no int or number; ``X | None``
    also takes None. An int in a float field is stored as a float, unless no
    float can hold it.
    """
    hints = _type_hints(type(obj))
    for f in fields(obj):
        value, kinds = getattr(obj, f.name), get_args(hints[f.name]) or (hints[f.name],)
        if kinds[0] is float and type(value) is int and abs(value) <= sys.float_info.max:
            object.__setattr__(obj, f.name, value := float(value))
        require(type(value) in kinds, f.name, TYPE_NAMES[kinds[0]], repr(value))

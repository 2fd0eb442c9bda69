"""Shared exception types for the pipeline, and the field checks that raise them."""

import math
from types import UnionType
from typing import get_args

TYPE_NAMES = {bool: "a boolean", float: "a number", int: "an integer", str: "a string",
              type(None): "null"}


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
    """Raise ``ValidationError("<where>: must be <rule>, got <value>")`` unless ok.

    The value is shown as its repr, cut at 40 characters; an int too long for
    ``repr`` is shown by its digit count.
    """
    if not ok:
        try:
            shown = repr(value)[:40]
        except ValueError:  # past the int-to-str digit limit
            shown = f"an int of about {int(value.bit_length() * 0.30103) + 1} digits"
        raise ValidationError(f"{where}: must be {rule}, got {shown}")


def require_type(hint, value, where: str):
    """``value`` checked against a scalar type or ``X | None``, else ValidationError.

    The one type rule for every outside value: a config field, and each scalar
    of a graph or paths file. The match is exact, so a bool is never an int or
    a number. An int for a float comes back as a float, unless no float can
    hold it; a float must be finite.
    """
    kinds = get_args(hint) if isinstance(hint, UnionType) else (hint,)
    if float in kinds and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ValidationError(f"{where}: integer too large for a float") from None
    require(type(value) in kinds, where, " or ".join(TYPE_NAMES[k] for k in kinds), value)
    require(type(value) is not float or math.isfinite(value), where, "finite", value)
    return value

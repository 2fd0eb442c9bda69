"""Shared exception types for the pipeline."""


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

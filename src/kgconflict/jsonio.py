"""JSON file reading and writing, with one error mapping per file shape.

A file that must hold one JSON object (a graph or paths document) fails with
ValidationError; a JSON Lines file (a dataset or a mock script) fails with
ParseError naming the line. ``decode`` turns parsed JSON back into the
dataclasses that ``dataclasses.asdict`` wrote out.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from pathlib import Path
from types import UnionType
from typing import Iterator, Union, get_args, get_origin, get_type_hints

from .errors import ParseError, ValidationError, require


def write_json(path: str | Path, payload: dict) -> None:
    """Write one JSON document with stable key order and a trailing newline."""
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def read_json_object(path: str | Path, what: str) -> dict:
    """Parse a JSON file that must hold one object; any failure is a ValidationError."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{what} file {path}: expected a JSON object")
    return data


def read_json_lines(path: str | Path, what: str) -> Iterator[tuple[int, object]]:
    """Yield (line number, value) for each non-blank line of a JSON Lines file.

    A line that is not JSON, or that the parser refuses (nested too deeply,
    an integer with too many digits), raises ParseError naming ``what`` and
    the line number. A file that is not UTF-8 text raises ParseError.
    """
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    value = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise ParseError(f"{what} {line_no}: invalid JSON: {exc}") from exc
                yield line_no, value
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


_NAMES = {str: "a string", int: "an integer", float: "a number", type(None): "null"}
_SEQUENCES = (list, tuple, frozenset)
_type_hints = cache(get_type_hints)


def _describe(hint) -> str:
    if get_origin(hint) in (Union, UnionType):
        return " or ".join(map(_describe, get_args(hint)))
    if is_dataclass(hint):
        return "an object"
    return "a list" if get_origin(hint) in _SEQUENCES else _NAMES[hint]


def decode(hint, value, where: str):
    """Parsed JSON ``value`` read as type ``hint``, else ValidationError at ``where``.

    A dataclass reads an object, and a field missing from it takes its default
    or is an error. ``list[X]``, ``tuple[X, ...]`` and ``frozenset[X]`` read a
    list, or a tuple as ``dataclasses.asdict`` leaves it. ``X | None`` reads
    null or an X, and a float reads any finite number as a float. A bool is
    never a number.
    """
    declared = hint
    if get_origin(hint) in (Union, UnionType):  # only ``X | None`` occurs
        if value is None:
            return None
        (hint,) = [option for option in get_args(hint) if option is not type(None)]
    origin = get_origin(hint)
    if is_dataclass(hint):
        accepted = isinstance(value, dict)
    elif origin in _SEQUENCES:
        accepted = isinstance(value, (list, tuple))
    else:  # exact types: JSON gives no subclasses, and so a bool is no int
        accepted = type(value) is hint or (hint is float and type(value) is int)
    if not accepted:
        raise ValidationError(
            f"{where}: expected {_describe(declared)}, got {type(value).__name__}"
        )
    if hint is float:
        try:
            value = float(value)
        except OverflowError:
            raise ValidationError(f"{where}: integer too large for a float") from None
        require(math.isfinite(value), where, "finite", value)
    if origin in _SEQUENCES:
        item = get_args(hint)[0]
        return origin(decode(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    if not is_dataclass(hint):
        return value
    hints, kwargs = _type_hints(hint), {}
    for f in fields(hint):
        if f.name in value:
            kwargs[f.name] = decode(hints[f.name], value[f.name], f"{where}.{f.name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValidationError(f"{where}: missing field {f.name!r}")
    return hint(**kwargs)

"""JSON file reading and writing, with one error mapping per file shape.

A file that must hold one JSON object (a graph or paths document) fails with
ValidationError; a JSON Lines file (a dataset or a mock script) fails with
ParseError naming the line. ``decode`` turns parsed JSON back into the
dataclasses that ``dataclasses.asdict`` wrote out.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from pathlib import Path
from types import UnionType
from typing import Iterator, get_args, get_origin, get_type_hints

from .errors import ParseError, ValidationError, require, require_type


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


_SEQUENCES = (list, tuple, frozenset)
_type_hints = cache(get_type_hints)


def decode(hint, value, where: str):
    """Parsed JSON ``value`` read as type ``hint``, else ValidationError at ``where``.

    A dataclass reads an object, and a field missing from it takes its default
    or is an error; ``D | None`` of a dataclass D reads null or a D.
    ``list[X]``, ``tuple[X, ...]`` and ``frozenset[X]`` read a list, or a tuple
    as ``dataclasses.asdict`` leaves it, and ``tuple[X, Y]`` one of that length.
    ``dict[str, X]`` reads an object. A scalar or an ``X | None`` of one is read
    by ``errors.require_type``, the config's rule.
    """
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple and args[-1] is not Ellipsis:
        require(isinstance(value, (list, tuple)) and len(value) == len(args), where,
                f"a list of {len(args)} items", value)
        return tuple(decode(a, v, f"{where}[{i}]")
                     for i, (a, v) in enumerate(zip(args, value)))
    if origin in _SEQUENCES:
        require(isinstance(value, (list, tuple)), where, "a list", value)
        return origin(decode(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if origin is dict:
        require(isinstance(value, dict), where, "an object", value)
        return {k: decode(args[1], v, f"{where}.{k}") for k, v in value.items()}
    if isinstance(hint, UnionType) and is_dataclass(args[0]):  # D | None
        return None if value is None else decode(args[0], value, where)
    if not is_dataclass(hint):
        return require_type(hint, value, where)
    require(isinstance(value, dict), where, "an object", value)
    hints, kwargs = _type_hints(hint), {}
    for f in fields(hint):
        if f.name in value:
            kwargs[f.name] = decode(hints[f.name], value[f.name], f"{where}.{f.name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValidationError(f"{where}: missing field {f.name!r}")
    return hint(**kwargs)

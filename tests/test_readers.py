"""Fuzz gate for the input-file readers: a mutated valid file gives a value or
a PipelineError, never another exception."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fixtures

from kgconflict import (
    PipelineError,
    load_dataset,
    load_graph,
    load_mock_script,
    parse_config,
)
from kgconflict.retrieval import load_paths


def _readme_config() -> list[list[str]]:
    return [[part.strip() for part in line.split("=", 1)]
            for line in fixtures.readme_config_block().splitlines() if "=" in line]


def _golden(name: str) -> dict:
    path = Path(__file__).parent / "golden" / name
    return json.loads(path.read_text(encoding="utf-8"))


def _json_lines(doc) -> str:
    lines = doc if isinstance(doc, list) else [doc]
    return "".join(json.dumps(line) + "\n" for line in lines)


def _config_lines(doc) -> str:
    if not isinstance(doc, list):
        return f"{doc}\n"
    return "".join(
        f"{pair[0]} = {pair[1]}\n" if isinstance(pair, list) and len(pair) == 2
        else f"{pair}\n"
        for pair in doc
    )


# Each reader, the valid document its mutations start from, and how that
# document is written out as the reader's file.
_READERS = {
    "dataset": (load_dataset, [fixtures.replay_dataset_record()], _json_lines),
    "script": (load_mock_script, fixtures.replay_script_entries(), _json_lines),
    "graph": (load_graph, _golden("graph.json"), json.dumps),
    "paths": (load_paths, _golden("paths.json"), json.dumps),
    "config": (parse_config, _readme_config(), _config_lines),
}

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=12),
    st.sampled_from([10**400, int(sys.float_info.max) + 1, "\ud800", "", " ", "(",
                     "#", "-1", "1e999", fixtures.DEEP_REGEX]),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
# An edit: replace the n-th node of the document (in pre-order, n taken modulo
# the node count) with a value, drop it from its parent, or splice text into
# the written file.
_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.integers(0, 10**6), _VALUES),
        st.tuples(st.just("drop"), st.integers(0, 10**6)),
        st.tuples(st.just("splice"), st.integers(0, 10**6), st.integers(0, 8),
                  st.text(max_size=8)),
    ),
    min_size=1, max_size=3,
)


def _nodes(doc, parent=None, key=None):
    """Every (parent, key) slot of the document in pre-order; the root's is (None, None)."""
    yield parent, key
    children = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for child_key, child in list(children):
        yield from _nodes(child, doc, child_key)


def _mutated(doc, write, edits) -> str:
    doc = json.loads(json.dumps(doc))
    for edit in edits:
        if edit[0] == "splice":
            continue
        slots = list(_nodes(doc))
        parent, key = slots[edit[1] % len(slots)]
        if parent is None:
            doc = edit[2] if edit[0] == "set" else []
        elif edit[0] == "set":
            parent[key] = edit[2]
        else:
            del parent[key]
    text = write(doc)
    for edit in edits:
        if edit[0] == "splice":
            _, at, cut, insert = edit
            at %= len(text) + 1
            text = text[:at] + insert + text[at + cut:]
    return text


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzzed")


@pytest.mark.parametrize("kind", list(_READERS))
@settings(max_examples=200, deadline=None)
@given(edits=_EDITS)
# The script's first entry is a regex; node 3 is its "match" value.
@example(edits=[("set", 3, fixtures.DEEP_REGEX)])
def test_mutated_input_file_reads_or_raises_a_pipeline_error(fuzz_dir, kind, edits):
    read, doc, write = _READERS[kind]
    path = fuzz_dir / kind
    path.write_bytes(_mutated(doc, write, edits).encode("utf-8", "surrogatepass"))
    try:
        read(path)
    except PipelineError:
        pass

"""Segmentation, triple extraction, graph building, and persistence."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures

from kgconflict import (
    DanglingReference,
    EmptyContent,
    ExtractionParseError,
    KnowledgeGraph,
    SchemaVersionMismatch,
    Triple,
    build_graph,
    extract_triples,
    load_graph,
    load_mock_script,
    normalize_name,
    save_graph,
    segment,
)
from kgconflict.graph import graph_from_dict, graph_to_dict


# ---------------------------------------------------------------------------
# Segmentation


def test_forced_boundaries_at_cap():
    segs = segment("A. B. C.", 2)
    assert [s.text for s in segs] == ["A.", "B.", "C."]


def test_single_segment_when_cap_is_large():
    content = "One two three. Four five six. Seven eight. Nine. Ten eleven."
    segs = segment(content, 1000)
    assert len(segs) == 1
    assert segs[0].text == content


def test_replay_context_contains_required_entity(tmp_path):
    segs = segment(fixtures.REPLAY_CONTEXT, 256)
    assert any("Municipality of Nuevo Laredo" in s.text for s in segs)


def test_empty_content_rejected():
    with pytest.raises(EmptyContent):
        segment("", 10)
    with pytest.raises(EmptyContent):
        segment("   \n\t ", 10)


def test_long_sentence_split_at_cap():
    segs = segment("w1 w2 w3 w4 w5 w6 w7", 3)
    assert [s.text for s in segs] == ["w1 w2 w3", "w4 w5 w6", "w7"]
    for s in segs:
        assert len(s.text.split()) <= 3


def _assert_segment_invariants(content: str, segs) -> None:
    assert segs == sorted(segs, key=lambda s: s.char_range)
    rebuilt = content[: segs[0].char_range[0]]
    for i, seg in enumerate(segs):
        start, end = seg.char_range
        assert seg.text == content[start:end]
        assert seg.text.strip()
        if i + 1 < len(segs):
            next_start = segs[i + 1].char_range[0]
            assert end <= next_start
            gap = content[end:next_start]
            assert gap.strip() == ""
            rebuilt += seg.text + gap
        else:
            rebuilt += seg.text + content[end:]
    assert rebuilt == content
    assert content[: segs[0].char_range[0]].strip() == ""


@settings(max_examples=100, deadline=None)
@given(
    sentences=st.lists(
        st.lists(
            st.text(alphabet="abcdefgXYZ", min_size=1, max_size=6),
            min_size=1, max_size=12,
        ),
        min_size=1, max_size=8,
    ),
    cap=st.integers(min_value=1, max_value=10),
    lead=st.sampled_from(["", " ", "\n\t"]),
    trail=st.sampled_from(["", " ", "  \n"]),
)
def test_segmentation_round_trip_property(sentences, cap, lead, trail):
    content = lead + " ".join(
        " ".join(words).capitalize() + "." for words in sentences
    ) + trail
    segs = segment(content, cap)
    _assert_segment_invariants(content, segs)
    for seg in segs:
        assert len(seg.text.split()) <= cap


def test_segment_ids_are_sequential():
    segs = segment("A. B. C. D.", 1)
    assert [s.id for s in segs] == list(range(len(segs)))


def test_content_without_terminators_is_one_sentence():
    segs = segment("no terminal punctuation here at all", 100)
    assert len(segs) == 1
    assert segs[0].text == "no terminal punctuation here at all"


def test_leading_and_trailing_whitespace_excluded_from_segments():
    content = "  \n Hello there. Bye now.  \t"
    segs = segment(content, 100)
    assert segs[0].text == "Hello there. Bye now."
    assert segs[0].char_range == (4, 25)


# ---------------------------------------------------------------------------
# Triple extraction


def _extraction_gateway(tmp_path, entries):
    return load_mock_script(fixtures.write_script(tmp_path / "x.jsonl", entries))


def test_extract_triples_scripted_replay(tmp_path, replay_gateway):
    seg = segment(fixtures.REPLAY_CONTEXT, 256)[0]
    extracted = extract_triples(seg, replay_gateway)
    assert len(extracted) == len(fixtures.REPLAY_TRIPLES)
    assert all(e.triple.source_segment == seg.id for e in extracted)
    keyed = {
        (e.triple.head, e.triple.relation, e.triple.tail): e for e in extracted
    }
    target = keyed[("nuevo laredo", "located_in", "sinaloa")]
    assert "city located within the state" in target.rel_desc


def test_extract_triples_empty_array(tmp_path):
    gw = _extraction_gateway(tmp_path, [
        fixtures.gen_entry("Extract factual knowledge triples", "[]",
                           fixtures.one_token("[]"), regex=True),
    ])
    seg = segment("Nothing here.", 256)[0]
    assert extract_triples(seg, gw) == []


def test_extract_triples_malformed_fails_after_repair_retry(tmp_path):
    gw = _extraction_gateway(tmp_path, [
        fixtures.gen_entry("Extract factual knowledge triples", "not json",
                           fixtures.one_token("not json"), regex=True),
    ])
    seg = segment("Some text.", 256)[0]
    with pytest.raises(ExtractionParseError):
        extract_triples(seg, gw)


def test_extract_triples_repair_retry_succeeds(tmp_path):
    good = json.dumps([{
        "head": "A", "relation": "R", "tail": "B",
        "head_desc": "", "rel_desc": "", "tail_desc": "", "evidence": "A R B.",
    }])
    gw = _extraction_gateway(tmp_path, [
        # The repair prompt carries the strictness note; match it first.
        fixtures.gen_entry("was not valid JSON", good,
                           fixtures.one_token(good), regex=True),
        fixtures.gen_entry("Extract factual knowledge triples", "oops",
                           fixtures.one_token("oops"), regex=True),
    ])
    seg = segment("Some text.", 256)[0]
    extracted = extract_triples(seg, gw)
    assert [(e.triple.head, e.triple.relation, e.triple.tail)
            for e in extracted] == [("a", "r", "b")]


def test_extract_triples_strips_code_fences(tmp_path):
    payload = json.dumps([{
        "head": "A", "relation": "R", "tail": "B", "evidence": "e",
    }])
    fenced = f"```json\n{payload}\n```"
    gw = _extraction_gateway(tmp_path, [
        fixtures.gen_entry("Extract factual knowledge triples", fenced,
                           fixtures.one_token(fenced), regex=True),
    ])
    seg = segment("Some text.", 256)[0]
    extracted = extract_triples(seg, gw)
    assert len(extracted) == 1
    assert extracted[0].head_desc == ""


def test_extract_triples_rejects_empty_head(tmp_path):
    payload = json.dumps([{"head": " ", "relation": "R", "tail": "B"}])
    gw = _extraction_gateway(tmp_path, [
        fixtures.gen_entry("Extract", payload, fixtures.one_token(payload),
                           regex=True),
    ])
    seg = segment("Some text.", 256)[0]
    with pytest.raises(ExtractionParseError):
        extract_triples(seg, gw)


# ---------------------------------------------------------------------------
# Graph building


def test_build_graph_empty():
    graph = build_graph([])
    assert graph.stats() == {"entities": 0, "relations": 0, "triples": 0}
    assert graph.is_empty()


def test_build_graph_normalization_collapse():
    extractions = [
        fixtures.make_extraction("a", "r", "b"),
        fixtures.make_extraction("A ", "r", "b"),
    ]
    graph = build_graph(extractions)
    assert set(graph.entities) == {"a", "b"}
    assert set(graph.relations) == {"r"}
    assert len(graph.triples) == 1


def test_build_graph_replay_entities():
    graph = build_graph(fixtures.replay_extractions())
    for surface in ("CIUDAD DEPORTIVA", "NUEVO LAREDO", "SINALOA",
                    "MUNICIPALITY OF NUEVO LAREDO"):
        assert normalize_name(surface) in graph.entities
        assert graph.entities[normalize_name(surface)].name == surface


def test_build_graph_merges_descriptions_and_segments():
    extractions = [
        fixtures.make_extraction("a", "r", "b", segment_id=0),
        fixtures.make_extraction("a", "r", "c", segment_id=1),
    ]
    extractions[1] = fixtures.TripleExtraction(
        triple=extractions[1].triple,
        head_surface="A",
        relation_surface="r",
        tail_surface="c",
        head_desc="second description",
        rel_desc="desc of r",
        tail_desc="desc of c",
    )
    graph = build_graph(extractions)
    entity = graph.entities["a"]
    assert entity.description == "desc of a; second description"
    assert entity.surface_forms == ("a", "A")
    assert entity.source_segments == frozenset({0, 1})
    # Identical relation descriptions dedupe instead of repeating.
    assert graph.relations["r"].description == "desc of r"


def test_build_graph_duplicate_triples_keep_first_evidence():
    first = fixtures.make_extraction("a", "r", "b")
    second = fixtures.TripleExtraction(
        triple=fixtures.Triple(head="a", relation="r", tail="b",
                               source_segment=3, evidence="later evidence"),
        head_surface="a", relation_surface="r", tail_surface="b",
        head_desc="", rel_desc="", tail_desc="",
    )
    graph = build_graph([first, second])
    assert len(graph.triples) == 1
    assert graph.triples[0].evidence == first.triple.evidence
    assert graph.triples[0].source_segment == first.triple.source_segment
    # Merging still records the duplicate's segment on the entity.
    assert graph.entities["a"].source_segments == frozenset({0, 3})


def test_adjacency_lists_triples_under_both_endpoints():
    graph = build_graph([fixtures.make_extraction("a", "r", "b")])
    assert graph.adjacency["a"] == [(0, "out")]
    assert graph.adjacency["b"] == [(0, "in")]


def test_adjacency_self_loop_listed_twice():
    graph = build_graph([fixtures.make_extraction("a", "r", "a")])
    assert graph.adjacency["a"] == [(0, "out"), (0, "in")]


def _as_extractions(graph: KnowledgeGraph):
    out = []
    for triple in graph.triples:
        out.append(
            fixtures.TripleExtraction(
                triple=triple,
                head_surface=graph.entities[triple.head].name,
                relation_surface=graph.relations[triple.relation].name,
                tail_surface=graph.entities[triple.tail].name,
                head_desc=graph.entities[triple.head].description,
                rel_desc=graph.relations[triple.relation].description,
                tail_desc=graph.entities[triple.tail].description,
            )
        )
    return out


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_build_graph_idempotent_and_bounded(seed):
    rng = np.random.default_rng(seed)
    graph = fixtures.random_graph(rng, max_nodes=12, max_edges=25)
    graph.validate()
    assert len(graph.entities) <= 2 * max(len(graph.triples), 0) or graph.is_empty()
    assert len(graph.relations) <= len(graph.triples) or graph.is_empty()
    rebuilt = build_graph(_as_extractions(graph))
    assert set(rebuilt.entities) == set(graph.entities)
    assert set(rebuilt.relations) == set(graph.relations)
    assert rebuilt.triples == graph.triples
    assert rebuilt.adjacency == graph.adjacency


# ---------------------------------------------------------------------------
# Persistence


def test_graph_is_validated_when_built():
    triple = Triple(head="a", relation="r", tail="b", source_segment=0, evidence="")
    with pytest.raises(DanglingReference, match="head 'a'"):
        KnowledgeGraph(entities={}, relations={}, triples=[triple])


def test_graph_round_trip(tmp_path):
    graph = build_graph(fixtures.replay_extractions())
    path = tmp_path / "graph.json"
    save_graph(graph, path)
    assert load_graph(path) == graph


def test_empty_graph_round_trip(tmp_path):
    graph = build_graph([])
    path = tmp_path / "graph.json"
    save_graph(graph, path)
    loaded = load_graph(path)
    assert loaded == graph
    assert loaded.is_empty()


def test_unknown_schema_version_rejected(tmp_path):
    graph = build_graph([fixtures.make_extraction("a", "r", "b")])
    data = graph_to_dict(graph)
    data["schema_version"] = 99
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(SchemaVersionMismatch):
        load_graph(path)


def test_graph_dict_round_trip_structural_equality():
    graph = build_graph(fixtures.replay_extractions())
    assert graph_from_dict(graph_to_dict(graph)) == graph

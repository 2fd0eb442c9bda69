"""Knowledge-graph construction from retrieved content.

Content is split into sentence-packed segments, each segment is sent through
the model for triple extraction, and the extracted triples are folded into a
deduplicated graph with an adjacency index.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable

from .errors import (
    DanglingReference,
    EmptyContent,
    ExtractionParseError,
    SchemaVersionMismatch,
    ValidationError,
    require,
)
from .gateway import GenerationRequest, ModelGateway
from .jsonio import decode, read_json_object, write_json
from .prompts import EXTRACT_TRIPLES, REPAIR_NOTE, render

log = logging.getLogger(__name__)

GRAPH_SCHEMA_VERSION = 1

# Sentence boundary: terminal punctuation, whitespace, then something that
# looks like a sentence opener. Deliberately simple and deterministic.
_SENTENCE_BOUNDARY = re.compile(r"(?<=[.!?])\s+(?=[\"'(\[]?[A-Z0-9])")
_TOKEN = re.compile(r"\S+")


def normalize_name(surface: str) -> str:
    """Casefold, trim, and collapse internal whitespace."""
    return " ".join(surface.casefold().split())


@dataclass(frozen=True)
class Segment:
    id: int
    text: str
    char_range: tuple[int, int]  # offsets into the original content


@dataclass(frozen=True)
class Entity:
    id: str                        # normalized name
    name: str                      # first surface form seen, used for display
    surface_forms: tuple[str, ...]
    description: str
    source_segments: frozenset[int]


@dataclass(frozen=True)
class Relation:
    id: str
    name: str
    description: str
    source_segments: frozenset[int]


@dataclass(frozen=True)
class Triple:
    head: str      # entity id
    relation: str  # relation id
    tail: str      # entity id
    source_segment: int
    evidence: str


@dataclass(frozen=True)
class TripleExtraction:
    """One extracted triple plus the surface strings and descriptions.

    The Triple carries normalized ids; the surfaces are what the model
    actually wrote and become Entity/Relation surface forms and display
    names when the graph is built.
    """

    triple: Triple
    head_surface: str
    relation_surface: str
    tail_surface: str
    head_desc: str
    rel_desc: str
    tail_desc: str


class KnowledgeGraph:
    """Immutable-by-convention container for entities, relations, triples.

    The constructor runs ``validate``, so every graph that exists is valid.
    The adjacency index maps each entity id to the triples that touch it as
    ``(triple_index, direction)`` with direction ``"out"`` (entity is head)
    or ``"in"`` (entity is tail). Structural equality ignores adjacency,
    which is derived from the triple list.
    """

    def __init__(
        self,
        entities: dict[str, Entity],
        relations: dict[str, Relation],
        triples: list[Triple],
    ) -> None:
        self.entities = entities
        self.relations = relations
        self.triples = triples
        self.validate()
        self.adjacency: dict[str, list[tuple[int, str]]] = {
            eid: [] for eid in entities
        }
        for idx, triple in enumerate(triples):
            self.adjacency[triple.head].append((idx, "out"))
            self.adjacency[triple.tail].append((idx, "in"))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return (
            self.entities == other.entities
            and self.relations == other.relations
            and self.triples == other.triples
        )

    def __repr__(self) -> str:
        return (
            f"KnowledgeGraph(entities={len(self.entities)}, "
            f"relations={len(self.relations)}, triples={len(self.triples)})"
        )

    def is_empty(self) -> bool:
        return not self.triples

    def stats(self) -> dict[str, int]:
        return {
            "entities": len(self.entities),
            "relations": len(self.relations),
            "triples": len(self.triples),
        }

    def validate(self) -> None:
        """Check referential integrity and the entity/relation set equations."""
        heads_tails = set()
        rel_ids = set()
        seen = set()
        for triple in self.triples:
            if triple.head not in self.entities:
                raise DanglingReference(f"triple head {triple.head!r} not in graph")
            if triple.tail not in self.entities:
                raise DanglingReference(f"triple tail {triple.tail!r} not in graph")
            if triple.relation not in self.relations:
                raise DanglingReference(
                    f"triple relation {triple.relation!r} not in graph"
                )
            key = (triple.head, triple.relation, triple.tail)
            if key in seen:
                raise ValidationError(f"duplicate triple {key}")
            seen.add(key)
            heads_tails.update((triple.head, triple.tail))
            rel_ids.add(triple.relation)
        if heads_tails != set(self.entities):
            raise ValidationError("entity set is not exactly the triple endpoints")
        if rel_ids != set(self.relations):
            raise ValidationError("relation set is not exactly the triple relations")
        for entity in self.entities.values():
            if entity.id not in {normalize_name(s) for s in entity.surface_forms}:
                raise ValidationError(
                    f"entity id {entity.id!r} is not the normalization of any "
                    "of its surface forms"
                )


def _sentence_spans(content: str) -> list[tuple[int, int]]:
    first = len(content) - len(content.lstrip())
    last = len(content.rstrip())
    spans = []
    start = first
    for match in _SENTENCE_BOUNDARY.finditer(content, first, last):
        spans.append((start, match.start()))
        start = match.end()
    spans.append((start, last))
    return spans


def _split_long_sentence(
    content: str, span: tuple[int, int], cap: int
) -> list[tuple[int, int]]:
    token_spans = [m.span() for m in _TOKEN.finditer(content, span[0], span[1])]
    chunks = []
    for i in range(0, len(token_spans), cap):
        group = token_spans[i : i + cap]
        chunks.append((group[0][0], group[-1][1]))
    return chunks


def segment(content: str, max_segment_tokens: int = 256) -> list[Segment]:
    """Split content into ordered, non-overlapping, covering segments.

    Boundaries fall only at sentence ends: sentences pack greedily into a
    segment while the running whitespace-token total stays under
    ``max_segment_tokens``; a single sentence longer than the cap is split
    at the cap. Each segment's text is the exact slice of the original
    content, so concatenating segments with the original inter-segment
    whitespace reproduces the content.
    """
    require(max_segment_tokens >= 1, "max_segment_tokens", ">= 1", max_segment_tokens)
    if not content or not content.strip():
        raise EmptyContent("segment: content is empty or whitespace-only")

    pieces: list[tuple[int, int]] = []
    for span in _sentence_spans(content):
        tokens = len(content[span[0] : span[1]].split())
        if tokens > max_segment_tokens:
            pieces.extend(_split_long_sentence(content, span, max_segment_tokens))
        else:
            pieces.append(span)

    packed: list[tuple[int, int]] = []
    packed_tokens = 0
    for span in pieces:
        tokens = len(content[span[0] : span[1]].split())
        if packed and packed_tokens + tokens < max_segment_tokens:
            packed[-1] = (packed[-1][0], span[1])
            packed_tokens += tokens
        else:
            packed.append(span)
            packed_tokens = tokens
    return [
        Segment(id=i, text=content[start:end], char_range=(start, end))
        for i, (start, end) in enumerate(packed)
    ]


def _strip_code_fences(text: str) -> str:
    text = text.strip()
    if text.startswith("```"):
        text = text[3:]
        if text.startswith("json"):
            text = text[4:]
        if text.endswith("```"):
            text = text[:-3]
    return text.strip()


def _parse_extraction_response(text: str, seg: Segment) -> list[TripleExtraction]:
    try:
        data = json.loads(_strip_code_fences(text))
    except json.JSONDecodeError as exc:
        raise ExtractionParseError(
            f"segment {seg.id}: extraction output is not valid JSON: {exc}"
        ) from exc
    if not isinstance(data, list):
        raise ExtractionParseError(
            f"segment {seg.id}: extraction output is not a JSON array"
        )
    out: list[TripleExtraction] = []
    for i, item in enumerate(data):
        if not isinstance(item, dict):
            raise ExtractionParseError(
                f"segment {seg.id}: triple {i} is not an object"
            )
        values: dict[str, str] = {}
        for key in ("head", "relation", "tail"):
            value = item.get(key)
            if not isinstance(value, str) or not value.strip():
                raise ExtractionParseError(
                    f"segment {seg.id}: triple {i} has missing or empty {key!r}"
                )
            values[key] = value
        for key in ("head_desc", "rel_desc", "tail_desc", "evidence"):
            value = item.get(key, "")
            if not isinstance(value, str):
                raise ExtractionParseError(
                    f"segment {seg.id}: triple {i} field {key!r} is not a string"
                )
            values[key] = value
        out.append(
            TripleExtraction(
                triple=Triple(
                    head=normalize_name(values["head"]),
                    relation=normalize_name(values["relation"]),
                    tail=normalize_name(values["tail"]),
                    source_segment=seg.id,
                    evidence=values["evidence"],
                ),
                head_surface=values["head"].strip(),
                relation_surface=values["relation"].strip(),
                tail_surface=values["tail"].strip(),
                head_desc=values["head_desc"],
                rel_desc=values["rel_desc"],
                tail_desc=values["tail_desc"],
            )
        )
    return out


def extract_triples(
    seg: Segment,
    gateway: ModelGateway,
    max_tokens: int = 1024,
    logprob_top_k: int = 10,
    model_id: str | None = None,
) -> list[TripleExtraction]:
    """Extract structured triples from one segment via the model.

    The model must answer with a strict JSON array (see the extraction
    template). One repair retry is attempted on a malformed reply; a second
    failure raises ExtractionParseError, which callers treat as "skip this
    segment".
    """
    request = GenerationRequest(
        prompt=render(EXTRACT_TRIPLES, segment=seg.text),
        temperature=0.0,
        max_tokens=max_tokens,
        logprob_top_k=logprob_top_k,
        model_id=model_id,
    )
    try:
        return _parse_extraction_response(gateway.generate(request).text, seg)
    except ExtractionParseError as first_error:
        log.warning("segment %d: retrying extraction after parse failure: %s",
                    seg.id, first_error)
        repair = replace(request, prompt=request.prompt + "\n\n" + REPAIR_NOTE)
        return _parse_extraction_response(gateway.generate(repair).text, seg)


class _AttributeAccumulator:
    __slots__ = ("name", "surfaces", "descriptions", "segments")

    def __init__(self) -> None:
        self.name = ""
        self.surfaces: dict[str, None] = {}
        self.descriptions: dict[str, None] = {}
        self.segments: set[int] = set()

    def add(self, surface: str, description: str, segment_id: int) -> None:
        if not self.name:
            self.name = surface
        self.surfaces.setdefault(surface)
        if description:
            self.descriptions.setdefault(description)
        self.segments.add(segment_id)

    def merged_description(self) -> str:
        return "; ".join(self.descriptions)


def build_graph(extracted: Iterable[TripleExtraction]) -> KnowledgeGraph:
    """Fold extraction results into a deduplicated knowledge graph.

    Entities and relations are keyed by normalized id; surface forms and
    source segments merge, colliding descriptions concatenate unique parts
    with "; ", and duplicate (head, relation, tail) triples collapse keeping
    the first occurrence's evidence.
    """
    entity_acc: dict[str, _AttributeAccumulator] = {}
    relation_acc: dict[str, _AttributeAccumulator] = {}
    triples: list[Triple] = []
    seen: set[tuple[str, str, str]] = set()

    for ext in extracted:
        triple = ext.triple
        key = (triple.head, triple.relation, triple.tail)
        entity_acc.setdefault(triple.head, _AttributeAccumulator()).add(
            ext.head_surface, ext.head_desc, triple.source_segment
        )
        entity_acc.setdefault(triple.tail, _AttributeAccumulator()).add(
            ext.tail_surface, ext.tail_desc, triple.source_segment
        )
        relation_acc.setdefault(triple.relation, _AttributeAccumulator()).add(
            ext.relation_surface, ext.rel_desc, triple.source_segment
        )
        if key in seen:
            continue
        seen.add(key)
        triples.append(triple)

    entities = {
        eid: Entity(
            id=eid,
            name=acc.name,
            surface_forms=tuple(acc.surfaces),
            description=acc.merged_description(),
            source_segments=frozenset(acc.segments),
        )
        for eid, acc in entity_acc.items()
    }
    relations = {
        rid: Relation(
            id=rid,
            name=acc.name,
            description=acc.merged_description(),
            source_segments=frozenset(acc.segments),
        )
        for rid, acc in relation_acc.items()
    }
    return KnowledgeGraph(entities=entities, relations=relations, triples=triples)


def graph_to_dict(graph: KnowledgeGraph) -> dict:
    """The rows' fields, sorted by id, with source segments as sorted lists."""
    def row(item: Entity | Relation) -> dict:
        return {**asdict(item), "source_segments": sorted(item.source_segments)}

    return {
        "schema_version": GRAPH_SCHEMA_VERSION,
        "entities": [row(graph.entities[eid]) for eid in sorted(graph.entities)],
        "relations": [row(graph.relations[rid]) for rid in sorted(graph.relations)],
        "triples": [asdict(t) for t in graph.triples],
    }


def graph_from_dict(data: dict) -> KnowledgeGraph:
    version = data.get("schema_version")
    if version != GRAPH_SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"graph schema version {version!r}, expected {GRAPH_SCHEMA_VERSION}"
        )
    tables: dict[str, dict] = {}
    for key, row_type in (("entities", Entity), ("relations", Relation)):
        table = tables[key] = {}
        for row in decode(list[row_type], data.get(key), f"graph.{key}"):
            if row.id in table:
                raise ValidationError(f"graph.{key}: duplicate id {row.id!r}")
            table[row.id] = row
    triples = decode(list[Triple], data.get("triples"), "graph.triples")
    return KnowledgeGraph(triples=triples, **tables)


def save_graph(graph: KnowledgeGraph, path: str | Path) -> None:
    """Persist the graph as a single JSON document with stable key order."""
    write_json(path, graph_to_dict(graph))


def load_graph(path: str | Path) -> KnowledgeGraph:
    return graph_from_dict(read_json_object(path, "graph"))

"""Query-aware graph retrieval.

Extracts the query's key elements, ranks graph entities/relations by
embedding similarity, enumerates one- and two-hop reasoning paths from the
important entities, scores them by coverage of the important sets, and
renders the selected paths into contextual text blocks.
"""

from __future__ import annotations

import heapq
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DanglingReference,
    EmptyInput,
    SchemaVersionMismatch,
    ValidationError,
    require,
)
from .gateway import GenerationRequest, ModelGateway
from .graph import KnowledgeGraph, _strip_code_fences
from .jsonio import decode, read_json_object
from .prompts import KEY_ELEMENTS, render

log = logging.getLogger(__name__)

PATHS_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class QueryKeyElements:
    """Target entities, relations, and intent extracted from the query."""

    target_entities: tuple[str, ...] = ()
    target_relations: tuple[str, ...] = ()
    intent: str = ""

    def __post_init__(self) -> None:
        if not (self.target_entities or self.target_relations or self.intent):
            raise ValidationError(
                "QueryKeyElements: all of entities/relations/intent are empty"
            )

    def key_strings(self) -> list[str]:
        """All non-empty key strings, deduplicated, order-preserving."""
        seen: dict[str, None] = {}
        for text in (*self.target_entities, *self.target_relations, self.intent):
            if text:
                seen.setdefault(text)
        return list(seen)


@dataclass(frozen=True)
class RetrievalConfig:
    alpha: float = 0.5
    beta: float = 0.5
    k_similar: int = 10
    paths_k: int = 10

    def __post_init__(self) -> None:
        require(0 <= self.alpha < math.inf, "retrieval.alpha", "finite and >= 0",
                self.alpha)
        require(0 <= self.beta < math.inf, "retrieval.beta", "finite and >= 0", self.beta)
        if self.alpha + self.beta <= 0:
            raise ValidationError("retrieval.alpha+beta: must be > 0")
        require(self.k_similar >= 1, "retrieval.k_similar", ">= 1", self.k_similar)
        require(self.paths_k >= 1, "retrieval.paths_k", ">= 1", self.paths_k)


@dataclass(frozen=True)
class ImportantSets:
    """Top-k entities and relations with their similarity scores."""

    entities: tuple[tuple[str, float], ...]
    relations: tuple[tuple[str, float], ...]
    k: int

    def __post_init__(self) -> None:
        # Built once: score_path asks for both sets once per enumerated path.
        object.__setattr__(self, "_entity_ids", frozenset(e for e, _ in self.entities))
        object.__setattr__(
            self, "_relation_ids", frozenset(r for r, _ in self.relations)
        )

    def entity_ids(self) -> frozenset[str]:
        return self._entity_ids

    def relation_ids(self) -> frozenset[str]:
        return self._relation_ids


@dataclass(frozen=True)
class PathEdge:
    relation: str      # relation id
    triple_index: int  # index into graph.triples
    direction: str     # "forward" (head->tail) or "reverse"


@dataclass
class ReasoningPath:
    """A simple path of 1 or 2 edges starting at an important entity."""

    nodes: tuple[str, ...]
    edges: tuple[PathEdge, ...]
    score: float = 0.0
    rendered_context: str | None = None

    def key(self) -> tuple:
        return (self.nodes, self.edges)

    def validate(self, graph: KnowledgeGraph) -> None:
        if len(self.nodes) != len(self.edges) + 1:
            raise ValidationError("path: |nodes| must equal |edges| + 1")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValidationError("path: repeated node (not a simple path)")
        for i, edge in enumerate(self.edges):
            if not 0 <= edge.triple_index < len(graph.triples):
                raise DanglingReference(
                    f"path edge {i}: triple index {edge.triple_index} out of range"
                )
            triple = graph.triples[edge.triple_index]
            if edge.direction == "forward":
                src, dst = triple.head, triple.tail
            elif edge.direction == "reverse":
                src, dst = triple.tail, triple.head
            else:
                raise ValidationError(f"path edge {i}: bad direction {edge.direction!r}")
            if (self.nodes[i], self.nodes[i + 1]) != (src, dst):
                raise ValidationError(f"path edge {i}: does not connect its nodes")
            if triple.relation != edge.relation:
                raise ValidationError(f"path edge {i}: relation id mismatch")


def load_paths(path: str | Path) -> tuple[str | None, list[ReasoningPath]]:
    """Read a paths file written by ``retrieve-paths``: (question, paths).

    The question is None when the file has none. A file that is not a
    paths document of a known schema version raises ValidationError or
    SchemaVersionMismatch.
    """
    data = read_json_object(path, "paths")
    version = data.get("schema_version")
    if version != PATHS_SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"paths schema version {version!r}, expected {PATHS_SCHEMA_VERSION}"
        )
    return (
        decode(str | None, data.get("question"), "paths file.question"),
        decode(list[ReasoningPath], data.get("paths"), "paths file.paths"),
    )


def _normed(v: np.ndarray) -> tuple[np.ndarray, float]:
    return v, float(np.linalg.norm(v))


def _max_cosine(
    vec: tuple[np.ndarray, float], key_vectors: list[tuple[np.ndarray, float]]
) -> float:
    """Max ``cosine`` of a ``_normed`` vector against ``_normed`` key vectors.

    Norms come precomputed, so ranking n candidates against m keys takes
    n + m norms, not 2nm. One ``np.dot`` per pair, not a matrix product:
    BLAS matrix kernels sum in another order and change the last bit.
    """
    u, nu = vec
    return max(
        0.0 if nu == 0.0 or nk == 0.0
        else min(max(float(np.dot(u, k)) / (nu * nk), -1.0), 1.0)
        for k, nk in key_vectors
    )


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity clamped to [-1, 1]; zero vectors compare as 0."""
    return _max_cosine(_normed(u), [_normed(v)])


def extract_key_elements(
    query: str,
    gateway: ModelGateway,
    max_tokens: int = 256,
    logprob_top_k: int = 10,
    model_id: str | None = None,
) -> QueryKeyElements:
    """Ask the model for the query's target entities/relations/intent.

    A malformed reply (or one with every field empty) falls back to using
    the whole query string as the single target entity rather than failing.
    """
    if not query or not query.strip():
        raise EmptyInput("extract_key_elements: empty query")
    result = gateway.generate(
        GenerationRequest(
            prompt=render(KEY_ELEMENTS, query=query),
            temperature=0.0,
            max_tokens=max_tokens,
            logprob_top_k=logprob_top_k,
            model_id=model_id,
        )
    )
    fallback = QueryKeyElements(target_entities=(query,))
    try:
        data = json.loads(_strip_code_fences(result.text))
    except json.JSONDecodeError:
        log.warning("key-element reply was not JSON; falling back to raw query")
        return fallback
    if not isinstance(data, dict):
        return fallback

    def _str_list(value: object) -> tuple[str, ...]:
        if not isinstance(value, list):
            return ()
        return tuple(v.strip() for v in value if isinstance(v, str) and v.strip())

    entities = _str_list(data.get("target_entities"))
    relations = _str_list(data.get("target_relations"))
    intent = data.get("intent")
    intent = intent.strip() if isinstance(intent, str) else ""
    if not (entities or relations or intent):
        return fallback
    return QueryKeyElements(
        target_entities=entities, target_relations=relations, intent=intent
    )


def _embed_distinct(
    texts: list[str], gateway: ModelGateway
) -> dict[str, tuple[np.ndarray, float]]:
    """Distinct texts' ``_normed`` vectors, embedded in one call in first-seen order."""
    unique = list(dict.fromkeys(texts))
    return {
        text: _normed(np.asarray(vec.values, dtype=np.float64))
        for text, vec in zip(unique, gateway.embed(unique))
    }


def similarity(
    candidate_text: str,
    key: QueryKeyElements,
    gateway: ModelGateway,
) -> float:
    """Max cosine similarity between the candidate and any key string."""
    if not candidate_text:
        raise EmptyInput("similarity: empty candidate text")
    keys = key.key_strings()
    vectors = _embed_distinct([candidate_text, *keys], gateway)
    return _max_cosine(vectors[candidate_text], [vectors[k] for k in keys])


def _rank(
    named: list[tuple[str, str]],  # (id, display text)
    key_vectors: list[tuple[np.ndarray, float]],
    vectors: dict[str, tuple[np.ndarray, float]],
    k: int,
) -> tuple[tuple[str, float], ...]:
    scored = [
        (item_id, _max_cosine(vectors[text], key_vectors)) for item_id, text in named
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return tuple(scored[:k])


def top_k_important(
    graph: KnowledgeGraph,
    key: QueryKeyElements,
    cfg: RetrievalConfig,
    gateway: ModelGateway,
) -> ImportantSets:
    """Rank entities and relations by similarity to the key elements.

    Display names are what gets embedded. Ties break deterministically:
    score descending, then id ascending. Empty graph dimensions yield empty
    lists.
    """
    entity_named = [(e.id, e.name) for e in graph.entities.values()]
    relation_named = [(r.id, r.name) for r in graph.relations.values()]
    if not (entity_named or relation_named):
        return ImportantSets(entities=(), relations=(), k=cfg.k_similar)
    keys = key.key_strings()
    texts = [text for _, text in entity_named + relation_named] + keys
    vectors = _embed_distinct(texts, gateway)
    key_vectors = [vectors[k] for k in keys]
    return ImportantSets(
        entities=_rank(entity_named, key_vectors, vectors, cfg.k_similar),
        relations=_rank(relation_named, key_vectors, vectors, cfg.k_similar),
        k=cfg.k_similar,
    )


def enumerate_paths(
    graph: KnowledgeGraph, important: ImportantSets
) -> list[ReasoningPath]:
    """All simple 1- and 2-edge paths starting at each important entity.

    Triples are traversed as undirected edges; the actual direction of each
    hop is recorded. Output is globally deduplicated by the exact
    (nodes, edges) sequence and its order is deterministic.
    """
    # Adjacency lists hold each (triple, direction) once and self-loops are
    # dropped, so paths from distinct start ids never repeat.
    hops: dict[str, list[tuple[str, PathEdge]]] = {}

    def _hops(eid: str) -> list[tuple[str, PathEdge]]:
        """(neighbour, edge) per triple touching ``eid``, built once per call."""
        if eid not in hops:
            hops[eid] = []
            for t, d in graph.adjacency.get(eid, ()):
                triple = graph.triples[t]
                other = triple.tail if d == "out" else triple.head
                if other != eid:
                    direction = "forward" if d == "out" else "reverse"
                    hops[eid].append((other, PathEdge(triple.relation, t, direction)))
        return hops[eid]

    paths: list[ReasoningPath] = []
    for start in dict.fromkeys(eid for eid, _ in important.entities):
        for mid, edge1 in _hops(start):
            paths.append(ReasoningPath(nodes=(start, mid), edges=(edge1,)))
            for end, edge2 in _hops(mid):
                if end != start:
                    paths.append(
                        ReasoningPath(nodes=(start, mid, end), edges=(edge1, edge2))
                    )
    return paths


def score_path(
    path: ReasoningPath, important: ImportantSets, cfg: RetrievalConfig
) -> float:
    """Coverage score: alpha * entity coverage + beta * relation coverage.

    Each term is the fraction of the important set touched by the path's
    distinct entities/relations; a term with an empty important set
    contributes 0.
    """
    score = 0.0
    entity_ids = important.entity_ids()
    if entity_ids:
        covered = len(entity_ids.intersection(path.nodes))
        score += cfg.alpha * (covered / len(entity_ids))
    relation_ids = important.relation_ids()
    if relation_ids:
        covered = len(relation_ids.intersection([e.relation for e in path.edges]))
        score += cfg.beta * (covered / len(relation_ids))
    return score


def _selection_key(path: ReasoningPath) -> tuple:
    return (
        -path.score,
        len(path.edges),
        path.nodes,
        tuple(e.relation for e in path.edges),
        tuple(e.direction for e in path.edges),
        tuple(e.triple_index for e in path.edges),
    )


def select_super_paths(
    paths: list[ReasoningPath], cfg: RetrievalConfig
) -> list[ReasoningPath]:
    """Top paths by score.

    Ties break by shorter path first, then lexicographic node sequence,
    then relation/direction/triple-index sequences so the selection is a
    total order. Returns min(paths_k, len(paths)) paths.
    """
    # The full key only orders paths that tie on (score, length) with the
    # paths_k-th one; every path that ranks below it on that prefix is out.
    prefixes = [(-p.score, len(p.edges)) for p in paths]
    if not prefixes:
        return []
    cut = heapq.nsmallest(cfg.paths_k, prefixes)[-1]
    contenders = [p for p, prefix in zip(paths, prefixes) if prefix <= cut]
    return heapq.nsmallest(cfg.paths_k, contenders, key=_selection_key)


def _arrow(edge: PathEdge, relation_name: str) -> str:
    if edge.direction == "forward":
        return f" --{relation_name}--> "
    return f" <--{relation_name}-- "


def contextualize(
    path: ReasoningPath,
    graph: KnowledgeGraph,
    important: ImportantSets | None = None,
) -> str:
    """Render a path into its three-block contextual structure.

    The Path block shows the hop sequence with display names; the Entities
    and Relations blocks list the path's members of the important sets with
    their attribute descriptions (all path members when ``important`` is
    omitted). The rendering is byte-stable and is stored on the path.
    """
    for node in path.nodes:
        if node not in graph.entities:
            raise DanglingReference(f"path node {node!r} not in graph")
    for edge in path.edges:
        if edge.relation not in graph.relations:
            raise DanglingReference(f"path relation {edge.relation!r} not in graph")
    path.validate(graph)

    line = graph.entities[path.nodes[0]].name
    for edge, node in zip(path.edges, path.nodes[1:]):
        line += _arrow(edge, graph.relations[edge.relation].name)
        line += graph.entities[node].name

    entity_ids = list(path.nodes)
    relation_ids = list(dict.fromkeys(e.relation for e in path.edges))
    if important is not None:
        entity_ids = [e for e in entity_ids if e in important.entity_ids()]
        relation_ids = [r for r in relation_ids if r in important.relation_ids()]

    lines = [f"Path: {line}", "Entities:"]
    for eid in entity_ids:
        entity = graph.entities[eid]
        lines.append(f"- {entity.name}: {entity.description}")
    lines.append("Relations:")
    for rid in relation_ids:
        relation = graph.relations[rid]
        lines.append(f"- {relation.name}: {relation.description}")
    rendered = "\n".join(lines)
    path.rendered_context = rendered
    return rendered

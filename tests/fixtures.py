"""Shared builders for mock scripts, token distributions, random graphs and
the benchmark's generated inputs."""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from kgconflict import (
    ImportantSets,
    KnowledgeGraph,
    Triple,
    TripleExtraction,
    build_graph,
    normalize_name,
)
from kgconflict.errors import BackendUnavailable, LogprobsUnsupported, ParseError, ScriptMiss

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# ---------------------------------------------------------------------------
# Token-distribution helpers (script-side logprobs are natural log).


def one_token(text: str) -> list[dict]:
    """A single certain token carrying the whole text."""
    return [{"token": text, "candidates": [[text, 0.0]]}]


def uniform_tokens(token_texts: list[str], fan: int = 4) -> list[dict]:
    """Every position uniform over ``fan`` candidates (entropy log2(fan))."""
    logp = math.log(1.0 / fan)
    out = []
    for i, tok in enumerate(token_texts):
        cands = [[tok, logp]]
        for j in range(fan - 1):
            cands.append([f"{tok}~alt{j}", logp])
        out.append({"token": tok, "candidates": cands})
    return out


def sharp_tokens(token_texts: list[str], p: float = 0.95) -> list[dict]:
    """Every position nearly certain: chosen at p, one alternative at 1-p."""
    out = []
    for tok in token_texts:
        out.append({
            "token": tok,
            "candidates": [[tok, math.log(p)], [f"{tok}~alt", math.log(1.0 - p)]],
        })
    return out


def two_way_entropy_bits(p: float) -> float:
    """Entropy of a {p, 1-p} distribution in bits."""
    q = 1.0 - p
    return -(p * math.log2(p) + q * math.log2(q))


def gen_entry(match: str, text: str, tokens: list[dict], regex: bool = False) -> dict:
    return {
        "kind": "generate",
        "match": match,
        "regex": regex,
        "response": {"text": text, "tokens": tokens},
    }


def embed_entry(match: str, vector: list[float], regex: bool = False) -> dict:
    return {"kind": "embed", "match": match, "regex": regex,
            "response": {"vector": vector}}


def readme_config_block() -> str:
    """The example under README's "Config file" heading."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("### Config file", 1)[1].split("```\n", 2)[1]


def write_script(path: Path, entries: list[dict]) -> Path:
    path.write_text(
        "".join(json.dumps(e) + "\n" for e in entries), encoding="utf-8"
    )
    return path


# Replies that json.loads refuses with a plain ValueError (an integer past the
# 4,300-digit conversion limit) or a RecursionError (deep nesting) rather
# than a JSONDecodeError.
HOSTILE_JSON_REPLIES = {
    "deep-nesting": "[" * 100_000 + "]" * 100_000,
    "huge-integer": "[" + "1" * 5000 + "]",
}


# A regex that ``re.compile`` refuses with a RecursionError, not ``re.error``.
# 500 groups already fail at the default recursion limit; Hypothesis lifts the
# limit by 2,000 frames while a test runs, so this nests deeper than that.
DEEP_REGEX = "(" * 5_000 + ")" * 5_000


class RecordingGateway:
    """Passes every call to ``inner`` and keeps its requests and embed inputs;
    ``calls`` holds both, each prompt or embed input list in call order."""

    def __init__(self, inner) -> None:
        self.inner, self.requests, self.embedded, self.calls = inner, [], [], []

    def generate(self, req):
        self.requests.append(req)
        self.calls.append(req.prompt)
        return self.inner.generate(req)

    def embed(self, texts):
        self.embedded.append(texts)
        self.calls.append(list(texts))
        return self.inner.embed(texts)


FAULTS = (BackendUnavailable, ScriptMiss, LogprobsUnsupported, ParseError)


class FaultyGateway:
    """Passes every call to ``inner``, but fails one whose request hashes under
    ``rate``: the sha256 of ``salt`` plus the prompt, or plus the embed texts
    joined by newlines. The same hash picks the error from ``FAULTS`` and names
    it in the message, so which calls fail, and how, depends on the requests
    alone, never on thread timing."""

    def __init__(self, inner, salt: str, rate: float) -> None:
        self.inner, self.salt, self.rate = inner, salt, rate

    def _check(self, request: str) -> None:
        digest = hashlib.sha256(
            (self.salt + request).encode("utf-8", "surrogatepass")).digest()
        if int.from_bytes(digest[:8], "big") < self.rate * 2**64:
            raise FAULTS[digest[8] % len(FAULTS)](f"injected fault {digest[:6].hex()}")

    def generate(self, req):
        self._check(req.prompt)
        return self.inner.generate(req)

    def embed(self, texts):
        self._check("\n".join(texts))
        return self.inner.embed(texts)


def generate_workload(workload: str, seed: int, out_dir: Path):
    """A benchmark workload's generated inputs for ``seed`` in ``out_dir``, and a
    config file there that answers them from the workload's mock script.

    Returns perfbench's ``Generated`` (dataset, script and the planned outcome
    of every record) and the config path. ``perfbench/`` is read, never edited.
    """
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads

    gen = workloads.generate(workload, seed, out_dir)
    config = out_dir / "config.txt"
    config.write_text(gen.config_text(f"mock_script = {gen.script}"), encoding="utf-8")
    return gen, config


# ---------------------------------------------------------------------------
# Golden replay fixture: a municipal-ownership question whose retrieved
# context contradicts the model's stale belief about the containing state.

REPLAY_QUESTION = (
    "In which administrative territorial entity is the owner of "
    "Ciudad Deportiva located?"
)

REPLAY_CONTEXT = (
    "The Municipality of Nuevo Laredo is an administrative territorial entity "
    "in the Mexican state of Sinaloa. Its municipal seat is the city of Nuevo "
    "Laredo. Ciudad Deportiva is a large sports complex owned by the "
    "Municipality of Nuevo Laredo. Estadio Nuevo Laredo is a baseball park "
    "inside Ciudad Deportiva, and the Tecolotes de Nuevo Laredo play their "
    "home games there."
)

REPLAY_GOLD = "Sinaloa"

# Descriptions are shared across triples so id-collision merging dedupes them.
_DESC = {
    "CIUDAD DEPORTIVA": "Ciudad Deportiva is a large sports complex in Nuevo Laredo.",
    "NUEVO LAREDO": (
        "Nuevo Laredo is a city in the Mexican state of Sinaloa and the "
        "municipal seat."
    ),
    "MUNICIPALITY OF NUEVO LAREDO": (
        "The Municipality of Nuevo Laredo is an administrative territorial "
        "entity in Sinaloa."
    ),
    "SINALOA": "Sinaloa is the Mexican state that contains the municipality.",
    "ESTADIO NUEVO LAREDO": (
        "Estadio Nuevo Laredo is a baseball park inside Ciudad Deportiva."
    ),
    "TECOLOTES DE NUEVO LAREDO": (
        "The Tecolotes de Nuevo Laredo are the baseball team hosted at "
        "Estadio Nuevo Laredo."
    ),
}

REPLAY_TRIPLES = [
    {
        "head": "CIUDAD DEPORTIVA", "relation": "LOCATED_IN", "tail": "NUEVO LAREDO",
        "head_desc": _DESC["CIUDAD DEPORTIVA"],
        "rel_desc": "marks the city or state where a place stands",
        "tail_desc": _DESC["NUEVO LAREDO"],
        "evidence": "Ciudad Deportiva is a large sports complex owned by the "
                    "Municipality of Nuevo Laredo.",
    },
    {
        "head": "MUNICIPALITY OF NUEVO LAREDO", "relation": "HAS_SEAT",
        "tail": "NUEVO LAREDO",
        "head_desc": _DESC["MUNICIPALITY OF NUEVO LAREDO"],
        "rel_desc": "links a municipality to its municipal seat",
        "tail_desc": _DESC["NUEVO LAREDO"],
        "evidence": "Its municipal seat is the city of Nuevo Laredo.",
    },
    {
        "head": "NUEVO LAREDO", "relation": "LOCATED_IN", "tail": "SINALOA",
        "head_desc": _DESC["NUEVO LAREDO"],
        "rel_desc": "Nuevo Laredo is a city located within the state of Sinaloa",
        "tail_desc": _DESC["SINALOA"],
        "evidence": "The Municipality of Nuevo Laredo is an administrative "
                    "territorial entity in the Mexican state of Sinaloa.",
    },
    {
        "head": "ESTADIO NUEVO LAREDO", "relation": "PART_OF",
        "tail": "CIUDAD DEPORTIVA",
        "head_desc": _DESC["ESTADIO NUEVO LAREDO"],
        "rel_desc": "marks the larger facility containing a venue",
        "tail_desc": _DESC["CIUDAD DEPORTIVA"],
        "evidence": "Estadio Nuevo Laredo is a baseball park inside Ciudad "
                    "Deportiva, and the Tecolotes de Nuevo Laredo play their "
                    "home games there.",
    },
    {
        "head": "TECOLOTES DE NUEVO LAREDO", "relation": "PLAYS_AT",
        "tail": "ESTADIO NUEVO LAREDO",
        "head_desc": _DESC["TECOLOTES DE NUEVO LAREDO"],
        "rel_desc": "links a team to its home venue",
        "tail_desc": _DESC["ESTADIO NUEVO LAREDO"],
        "evidence": "Estadio Nuevo Laredo is a baseball park inside Ciudad "
                    "Deportiva, and the Tecolotes de Nuevo Laredo play their "
                    "home games there.",
    },
    {
        "head": "CIUDAD DEPORTIVA", "relation": "OWNED_BY",
        "tail": "MUNICIPALITY OF NUEVO LAREDO",
        "head_desc": _DESC["CIUDAD DEPORTIVA"],
        "rel_desc": "names the administrative entity that owns the complex",
        "tail_desc": _DESC["MUNICIPALITY OF NUEVO LAREDO"],
        "evidence": "Ciudad Deportiva is a large sports complex owned by the "
                    "Municipality of Nuevo Laredo.",
    },
]

TARGET_PATH_NODES = ("municipality of nuevo laredo", "nuevo laredo", "sinaloa")

TARGET_PATH_MARKER = (
    "MUNICIPALITY OF NUEVO LAREDO --HAS_SEAT--> NUEVO LAREDO "
    "--LOCATED_IN--> SINALOA"
)

REPLAY_KEY_ELEMENTS = {
    "target_entities": ["Ciudad Deportiva"],
    "target_relations": ["owner of", "located in"],
    "intent": "administrative territorial entity containing the owner of "
              "Ciudad Deportiva",
}

# Stale parametric belief, moderately confident: H = two_way_entropy_bits(0.9).
PARAMETRIC_TEXT = "Tamaulipas."
_PARAMETRIC_TOKENS = sharp_tokens(["Tamaulipas", "."], p=0.9)

# The corrective path flattens the distribution: H = 2 bits (uniform over 4).
CORRECTIVE_TEXT = "The owner is located in Sinaloa."
_CORRECTIVE_TOKENS = uniform_tokens(
    ["The", " owner", " is", " located", " in", " Sin", "aloa", "."]
)

# Every other path agrees with the stale belief and sharpens it.
_SUPPORTING_TOKENS = sharp_tokens(["Tamaulipas", "."], p=0.95)

H_PARAM_BITS = two_way_entropy_bits(0.9)
H_CORRECTIVE_BITS = 2.0
H_SUPPORTING_BITS = two_way_entropy_bits(0.95)


def replay_script_entries() -> list[dict]:
    """Mock script for the golden replay (order matters: specific first)."""
    return [
        gen_entry(
            match=r"Extract factual knowledge triples",
            regex=True,
            text=json.dumps(REPLAY_TRIPLES),
            tokens=one_token(json.dumps(REPLAY_TRIPLES)),
        ),
        gen_entry(
            match=r"Identify the key elements",
            regex=True,
            text=json.dumps(REPLAY_KEY_ELEMENTS),
            tokens=one_token(json.dumps(REPLAY_KEY_ELEMENTS)),
        ),
        gen_entry(
            match=TARGET_PATH_MARKER,
            regex=True,
            text=CORRECTIVE_TEXT,
            tokens=_CORRECTIVE_TOKENS,
        ),
        gen_entry(
            match=r"Use the reference information below",
            regex=True,
            text=PARAMETRIC_TEXT,
            tokens=_SUPPORTING_TOKENS,
        ),
        gen_entry(
            match=r"Answer the question from your own knowledge",
            regex=True,
            text=PARAMETRIC_TEXT,
            tokens=_PARAMETRIC_TOKENS,
        ),
    ]


def replay_dataset_record() -> dict:
    start = REPLAY_CONTEXT.index("The Municipality")
    end = REPLAY_CONTEXT.index(".") + 1
    return {
        "id": "replay-1",
        "question": REPLAY_QUESTION,
        "context": REPLAY_CONTEXT,
        "gold_answers": [REPLAY_GOLD],
        "gold_spans": [[start, end]],
    }


def replay_extractions() -> list[TripleExtraction]:
    """The replay triples as build_graph input (bypassing the gateway)."""
    out = []
    for i, raw in enumerate(REPLAY_TRIPLES):
        out.append(
            TripleExtraction(
                triple=Triple(
                    head=normalize_name(raw["head"]),
                    relation=normalize_name(raw["relation"]),
                    tail=normalize_name(raw["tail"]),
                    source_segment=0,
                    evidence=raw["evidence"],
                ),
                head_surface=raw["head"],
                relation_surface=raw["relation"],
                tail_surface=raw["tail"],
                head_desc=raw["head_desc"],
                rel_desc=raw["rel_desc"],
                tail_desc=raw["tail_desc"],
            )
        )
    return out


# ---------------------------------------------------------------------------
# Random structures for oracle tests.


def make_extraction(head: str, relation: str, tail: str,
                    segment_id: int = 0) -> TripleExtraction:
    return TripleExtraction(
        triple=Triple(
            head=normalize_name(head),
            relation=normalize_name(relation),
            tail=normalize_name(tail),
            source_segment=segment_id,
            evidence=f"{head} {relation} {tail}",
        ),
        head_surface=head,
        relation_surface=relation,
        tail_surface=tail,
        head_desc=f"desc of {head}",
        rel_desc=f"desc of {relation}",
        tail_desc=f"desc of {tail}",
    )


def random_graph(rng: np.random.Generator, max_nodes: int = 30,
                 max_edges: int = 60) -> KnowledgeGraph:
    n_nodes = int(rng.integers(1, max_nodes + 1))
    n_edges = int(rng.integers(0, max_edges + 1))
    nodes = [f"n{i:02d}" for i in range(n_nodes)]
    relations = [f"r{i}" for i in range(int(rng.integers(1, 8)))]
    extractions = []
    for _ in range(n_edges):
        head = nodes[int(rng.integers(0, n_nodes))]
        tail = nodes[int(rng.integers(0, n_nodes))]
        rel = relations[int(rng.integers(0, len(relations)))]
        extractions.append(make_extraction(head, rel, tail))
    return build_graph(extractions)


def important_from_ids(entity_ids: list[str],
                       relation_ids: list[str] = ()) -> ImportantSets:
    return ImportantSets(
        entities=tuple((eid, 1.0) for eid in entity_ids),
        relations=tuple((rid, 1.0) for rid in relation_ids),
    )


def oracle_simple_paths(graph: KnowledgeGraph, start_ids: list[str]) -> set:
    """Exhaustive enumeration of simple paths of 1 or 2 undirected hops."""
    found = set()
    for start in start_ids:
        for i, t1 in enumerate(graph.triples):
            for src, mid, direction in (
                (t1.head, t1.tail, "forward"),
                (t1.tail, t1.head, "reverse"),
            ):
                if src != start or mid == start:
                    continue
                edge1 = (t1.relation, i, direction)
                found.add(((start, mid), (edge1,)))
                for j, t2 in enumerate(graph.triples):
                    for src2, end, direction2 in (
                        (t2.head, t2.tail, "forward"),
                        (t2.tail, t2.head, "reverse"),
                    ):
                        if src2 != mid or end in (start, mid):
                            continue
                        edge2 = (t2.relation, j, direction2)
                        found.add(((start, mid, end), (edge1, edge2)))
    return found


def path_key_set(paths) -> set:
    return {
        (
            p.nodes,
            tuple((e.relation, e.triple_index, e.direction) for e in p.edges),
        )
        for p in paths
    }

"""Seeded workload generator with a planned outcome for every record.

The program under test receives only the files written here: a dataset
JSONL, a mock script JSONL and a config file. Each record carries a unique
tag (``r0042``) in its id, question, every sentence and every entity name,
so a model call made on any pool thread can be attributed to its record
from the prompt alone (see ``record_tag``).

Every record is planned before it is written: the triples each segment's
extraction reply yields, the key elements, which probe answers are
high-entropy (corrective) and therefore which fallback fires and what the
final prediction is. The benchmark checks the program's outputs against
this plan.

Three graph shapes exist, one per workload:

* ``small``: A-r1-B, B-r2-C, D-r3-E plus a repeated triple; eight paths,
  all selected. Exactly one path (the 1-hop ``A --r1--> B``) is corrective
  on corrective records, so the final answer re-sends a probed prompt.
* ``hub``: a preferential-attachment graph of a few hundred entities.
  The key-element reply names ten entities: the ten biggest hubs on three
  records in ten, ten low-degree entities on the rest.
* ``sparse``: a random tree of degree at most three over about a hundred
  entities, extracted by many-triple replies.

On ``hub`` and ``sparse`` records every probe of a record answers alike,
so the plan does not depend on which paths the ranking selects.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

from kgconflict.prompts import (
    ANSWER_PARAMETRIC,
    EXTRACT_TRIPLES,
    KEY_ELEMENTS,
    REPAIR_NOTE,
    render,
)

TAG_RE = re.compile(r"\b(r\d{4})\b")

# Whitespace tokens per sentence; two sentences make one segment because the
# config sets max_segment_tokens to 2 * SENTENCE_TOKENS + 1.
SENTENCE_TOKENS = 12
LOGPROB_TOP_K = 10
TAU = 1.0

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_VERBS = [
    "founded", "acquired", "supplies", "advises", "borders", "funds",
    "hosts", "licenses", "audits", "employs", "owns", "mentors",
    "sponsors", "insures", "leases", "trains",
]
_MALFORMED = "Sure, here are the triples you asked for."
_FILLER = [
    "quietly", "during", "the", "northern", "season", "under", "a",
    "formal", "charter", "with", "modest", "records", "kept", "in",
    "regional", "archives",
]


def record_tag(text: str) -> str | None:
    """The record tag a prompt or text carries, or None."""
    match = TAG_RE.search(text)
    return match.group(1) if match else None


@dataclass(frozen=True)
class Shape:
    """Everything that distinguishes one workload's inputs."""

    records: int
    parallelism: int
    delay_s: float         # injected before each backend call at the proxy
    backend: str           # "mock" (in-process) or "http" (loopback server)
    graph: str             # "small" | "hub" | "sparse"
    segments: int          # extraction calls per record, last one repeats
    entities: int
    answer_words: int
    extract_chunk: int     # characters per extraction-reply token, 0 = one token
    extract_cands: int     # candidates per extraction-reply token


SHAPES = {
    "eval_backend_bound": Shape(
        records=100, parallelism=2, delay_s=0.010, backend="mock", graph="small",
        segments=4, entities=5, answer_words=6, extract_chunk=0, extract_cands=1,
    ),
    "eval_hub_cpu": Shape(
        records=100, parallelism=1, delay_s=0.0, backend="mock", graph="hub",
        segments=8, entities=160, answer_words=6, extract_chunk=0, extract_cands=1,
    ),
    "eval_http_loopback": Shape(
        records=100, parallelism=1, delay_s=0.0, backend="http", graph="sparse",
        segments=6, entities=60, answer_words=20, extract_chunk=40,
        extract_cands=2,
    ),
}


@dataclass(frozen=True)
class RecordPlan:
    id: str
    prediction: str
    correct: bool
    fallback: str


@dataclass(frozen=True)
class Generated:
    shape: Shape
    dataset: Path
    script: Path
    plan: dict[str, RecordPlan]

    def config_text(self, backend_line: str) -> str:
        return "\n".join([
            backend_line,
            "mode = full",
            f"tau = {TAU}",
            "fallback = top_delta",
            "k_similar = 10",
            "paths_k = 10",
            f"logprob_top_k = {LOGPROB_TOP_K}",
            "max_tokens = 256",
            f"max_segment_tokens = {2 * SENTENCE_TOKENS + 1}",
            f"parallelism = {self.shape.parallelism}",
            "skip_errors = true",
            "",
        ])


# --- token distributions (natural-log logprobs, as the script format wants)

def _answer_tokens(text: str, sharp: bool) -> list[dict]:
    """Word tokens with LOGPROB_TOP_K candidates each.

    A sharp answer is near-certain (about 0.1 bit per token); a flat one is
    uniform over the candidates (log2(10) bits), so its entropy delta over a
    sharp parametric answer exceeds TAU.
    """
    words = re.findall(r"\S+\s*", text)
    flat = math.log(1.0 / LOGPROB_TOP_K)
    out = []
    for i, word in enumerate(words):
        alts = [f"{word.strip()}~{j}" for j in range(LOGPROB_TOP_K - 1)]
        if sharp:
            cands = [[word, -0.01]] + [[a, -6.0 - j] for j, a in enumerate(alts)]
        else:
            cands = [[word, flat]] + [[a, flat] for a in alts]
        out.append({"token": word, "candidates": cands})
    return out


def _chunk_tokens(text: str, chunk: int, cands: int) -> list[dict]:
    pieces = [text[i:i + chunk] for i in range(0, len(text), chunk)]
    return _certainish(pieces, cands)


def _certainish(pieces: list[str], cands: int) -> list[dict]:
    if cands == 1:
        return [{"token": p, "candidates": [[p, 0.0]]} for p in pieces]
    return [
        {"token": p, "candidates": [[p, -0.001]] + [[f"~{j}", -8.0 - j]
                                                     for j in range(cands - 1)]}
        for p in pieces
    ]


def _generate(match: str, text: str, tokens: list[dict], regex: bool = False) -> dict:
    entry = {"kind": "generate", "match": match, "response": {"text": text, "tokens": tokens}}
    if regex:
        entry["regex"] = True
    return entry


# --- names and text

class _Names:
    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._used: set[str] = set()

    def word(self) -> str:
        while True:
            syllables = self._rng.randint(2, 3)
            w = "".join(self._rng.choice(_CONSONANTS) + self._rng.choice(_VOWELS)
                        for _ in range(syllables))
            if w not in self._used:
                self._used.add(w)
                return w.capitalize()


def _sentence(words: list[str]) -> str:
    words = " ".join(words).split()
    if len(words) > SENTENCE_TOKENS:
        raise ValueError("sentence words exceed SENTENCE_TOKENS")
    i = 0
    while len(words) < SENTENCE_TOKENS:
        words.append(_FILLER[i % len(_FILLER)])
        i += 1
    return " ".join(words) + "."


# --- graph shapes: lists of (head_index, relation_index, tail_index)

def _small_graph() -> list[tuple[int, int, int]]:
    return [(0, 0, 1), (1, 1, 2), (3, 2, 4)]


def _hub_graph(rng: random.Random, n: int, links: int = 4) -> list[tuple[int, int, int]]:
    """Preferential attachment: each new entity links to ``links`` earlier
    ones chosen in proportion to degree, which gives a power-law tail."""
    edges: list[tuple[int, int, int]] = []
    ends: list[int] = []
    for new in range(n):
        targets: set[int] = set(range(new)) if new <= links else set()
        while len(targets) < min(new, links):
            targets.add(rng.choice(ends))
        for t in sorted(targets):
            edges.append((new, rng.randrange(len(_VERBS)), t))
            ends.extend((new, t))
    return edges


def _sparse_graph(rng: random.Random, n: int) -> list[tuple[int, int, int]]:
    """A random tree in which no entity has degree above three."""
    degree = [0] * n
    edges = []
    for new in range(1, n):
        parent = rng.choice([v for v in range(new) if degree[v] < 3])
        degree[parent] += 1
        degree[new] += 1
        edges.append((parent, rng.randrange(len(_VERBS)), new))
    return edges


def _degrees(edges: list[tuple[int, int, int]], n: int) -> list[int]:
    deg = [0] * n
    for h, _r, t in edges:
        deg[h] += 1
        deg[t] += 1
    return deg


# --- one record

def _record(shape: Shape, rng: random.Random, names: _Names, index: int
            ) -> tuple[dict, list[dict], list[dict], list[dict], RecordPlan]:
    """Returns (dataset row, exact entries, specific regex entries, generic
    regex entries, plan)."""
    tag = f"r{index:04d}"
    n = shape.entities
    ent = [f"{names.word()} {tag}" for _ in range(n)]
    # The seed picks every name and answer; the graph's shape depends only
    # on the record index, so runs with different seeds do the same work.
    shape_rng = random.Random(f"{shape.graph}:{index}")
    if shape.graph == "small":
        edges = _small_graph()
    elif shape.graph == "hub":
        edges = _hub_graph(shape_rng, n)
    else:
        edges = _sparse_graph(shape_rng, n)
    verbs = list(_VERBS)
    rng.shuffle(verbs)
    gold = names.word()
    stale = names.word()
    while gold.lower() in f"{stale} {' '.join(_FILLER)}".lower():
        gold = names.word()

    described: set[str] = set()

    def desc(name: str, text: str) -> str:
        # Only a name's first mention carries its description; the graph
        # merges unique descriptions, so repeating it would change nothing.
        if name in described:
            return ""
        described.add(name)
        return text

    def triple(h: int, r: int, t: int) -> dict:
        fields = {
            "head": ent[h], "relation": verbs[r], "tail": ent[t],
            "head_desc": desc(ent[h], f"{ent[h]} is an entry of report {tag}."),
            "rel_desc": desc(verbs[r], f"{verbs[r]}, as recorded in report {tag}."),
            "tail_desc": desc(ent[t], f"{ent[t]} is an entry of report {tag}."),
        }
        # Empty descriptions and evidence may be left out of a reply.
        return {k: v for k, v in fields.items() if v}

    # Extraction replies: edges spread over all but the last segment; the
    # last repeats the first triples, so skipping it never changes the graph.
    body = shape.segments - 1
    replies = [[triple(*e) for e in edges[i::body]] for i in range(body)]
    replies.append([triple(*e) for e in edges[:3]])

    # Context: two fixed-length sentences per segment.
    sentences = [_sentence([ent[0], "cites", gold, "as", "the", "answer", "in", tag])]
    while len(sentences) < 2 * shape.segments:
        h, r, t = edges[len(sentences) % len(edges)]
        sentences.append(_sentence([ent[h], verbs[r], ent[t], "in", "report", tag]))
    context = " ".join(sentences)
    segment_texts = [" ".join(sentences[i:i + 2]) for i in range(0, len(sentences), 2)]
    question = f"Which name does {ent[0]} answer to in report {tag}?"
    gold_span = [0, len(sentences[0])]

    if shape.graph == "small":
        targets, target_rel = [ent[0]], [verbs[0]]
    else:
        deg = _degrees(edges, n)
        by_degree = sorted(range(n), key=lambda v: (-deg[v], v))
        # Three records in ten name hubs: p50 falls among the leaf records
        # and p90 among the hub records, not in the gap between them.
        pool = by_degree[:10] if index % 10 < 3 else by_degree[-10:]
        targets = [ent[v] for v in pool]
        target_rel = verbs[:2]
    key_reply = json.dumps({"target_entities": targets, "target_relations": target_rel,
                            "intent": f"name in report {tag}"})

    corrective = index % 2 == 0 if shape.graph == "small" else index % 4 in (0, 3)
    repair = index % 5 == 1
    skip = index % 10 == 3

    def answer(word: str) -> str:
        return " ".join([word] + [_FILLER[i % len(_FILLER)]
                                  for i in range(shape.answer_words - 1)])

    gold_text, stale_text = answer(gold), answer(stale)
    exact: list[dict] = []
    for k, (seg_text, reply) in enumerate(zip(segment_texts, replies)):
        prompt = render(EXTRACT_TRIPLES, segment=seg_text)
        text = json.dumps(reply)
        if shape.extract_chunk:
            tokens = _chunk_tokens(text, shape.extract_chunk, shape.extract_cands)
        else:
            tokens = _certainish([text], shape.extract_cands)
        if k == len(segment_texts) - 1 and (repair or skip):
            bad = _generate(prompt, _MALFORMED, _certainish([_MALFORMED], 1))
            exact.append(bad)
            repaired = _generate(prompt + "\n\n" + REPAIR_NOTE, text, tokens)
            exact.append({**bad, "match": repaired["match"]} if skip else repaired)
        else:
            exact.append(_generate(prompt, text, tokens))
    exact.append(_generate(render(KEY_ELEMENTS, query=question), key_reply,
                           _certainish([key_reply], 1)))
    exact.append(_generate(render(ANSWER_PARAMETRIC, question=question), stale_text,
                           _answer_tokens(stale_text, sharp=True)))

    question_re = re.escape(f"\nQuestion: {question}\nAnswer:")
    specific: list[dict] = []
    if shape.graph == "small":
        generic = [_generate(question_re, stale_text,
                             _answer_tokens(stale_text, sharp=True), regex=True)]
        if corrective:
            path_line = re.escape(f"Path: {ent[0]} --{verbs[0]}--> {ent[1]}\n")
            specific.append(_generate(path_line + r"(?s:.*)" + question_re, gold_text,
                                      _answer_tokens(gold_text, sharp=False), regex=True))
    else:
        text = gold_text if corrective else stale_text
        generic = [_generate(question_re, text,
                             _answer_tokens(text, sharp=not corrective), regex=True)]

    row = {"id": tag, "question": question, "context": context,
           "gold_answers": [gold], "gold_spans": [gold_span]}
    plan = RecordPlan(
        id=tag,
        prediction=gold_text if corrective else stale_text,
        correct=corrective,
        fallback="none" if corrective else "top_delta",
    )
    return row, exact, specific, generic, plan


def generate(workload: str, seed: int, out_dir: Path) -> Generated:
    """Write the dataset and mock script for one workload and seed.

    Records are written as they are made, so generating holds one record
    in memory and does not set the benchmark's peak RSS.
    """
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    names = _Names(rng)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = out_dir / "dataset.jsonl"
    script = out_dir / "script.jsonl"
    specific, generic = [], []
    plan: dict[str, RecordPlan] = {}
    with dataset.open("w", encoding="utf-8") as rows, \
            script.open("w", encoding="utf-8") as entries:
        for index in range(shape.records):
            row, exact, sp, ge, rec_plan = _record(shape, rng, names, index)
            rows.write(json.dumps(row) + "\n")
            entries.writelines(json.dumps(e) + "\n" for e in exact)
            specific.extend(sp)
            generic.extend(ge)
            plan[rec_plan.id] = rec_plan
        # Regex entries after every exact one: the mock answers with the
        # first match, and a record's path-specific regex must precede its
        # generic one.
        entries.writelines(json.dumps(e) + "\n" for e in specific + generic)
    return Generated(shape=shape, dataset=dataset, script=script, plan=plan)

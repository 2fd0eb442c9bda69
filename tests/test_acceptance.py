"""Acceptance gate: oracle equivalence, invariants, and golden replay.

Each test prints one [PASS]/[FAIL] line per criterion (visible with -s or on
failure). Everything here runs offline against the deterministic mock
backend.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

import fixtures

from kgconflict import (
    EvalRecord,
    ImportantSets,
    PipelineConfig,
    ReasoningPath,
    answer_query,
    build_graph,
    cpr,
    enumerate_paths,
    filter_corrective,
    is_correct,
    load_graph,
    load_mock_script,
    mean_token_entropy,
    run_eval,
    save_graph,
    score_path,
    select_super_paths,
)
from kgconflict.evaluation import write_results_csv, write_summary_json
from kgconflict.gateway import TokenCandidate, TokenLogprobs, TokenPosition
from kgconflict.retrieval import PathEdge

from test_conflict import entropy_oracle_bits


def _report(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert passed, f"{name}{suffix}"


def _tokens(position_logprobs) -> TokenLogprobs:
    positions = []
    for i, lps in enumerate(position_logprobs):
        cands = tuple(
            TokenCandidate(token=f"t{i}c{j}", logprob=lp)
            for j, lp in enumerate(lps)
        )
        positions.append(TokenPosition(token=f"t{i}c0", candidates=cands))
    return TokenLogprobs(positions=tuple(positions))


# ---------------------------------------------------------------------------


def test_entropy_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        length = int(rng.integers(1, 51))
        positions = []
        for _ in range(length):
            k = int(rng.integers(1, 11))
            weights = rng.random(k) + 1e-4
            probs = weights / weights.sum()
            positions.append([math.log(p) for p in probs])
        got = mean_token_entropy(_tokens(positions))
        want = entropy_oracle_bits(positions)
        worst = max(worst, abs(got - want))
    uniform4 = mean_token_entropy(_tokens([[math.log(0.25)] * 4]))
    deterministic = mean_token_entropy(_tokens([[0.0], [0.0]]))
    elapsed = time.perf_counter() - start
    _report(
        "entropy oracle equivalence",
        worst <= 1e-9 and uniform4 == 2.0 and deterministic == 0.0
        and elapsed < 5.0,
        f"max |Δ|={worst:.2e}, uniform4={uniform4}, det={deterministic}, "
        f"{elapsed:.2f}s",
    )


def test_traversal_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(200):
        graph = fixtures.random_graph(rng, max_nodes=30, max_edges=60)
        ids = sorted(graph.entities)
        if ids:
            count = int(rng.integers(1, min(len(ids), 10) + 1))
            picks = rng.choice(len(ids), size=count, replace=False)
            chosen = [ids[int(i)] for i in picks]
        else:
            chosen = []
        important = fixtures.important_from_ids(chosen)
        got = fixtures.path_key_set(enumerate_paths(graph, important))
        want = fixtures.oracle_simple_paths(graph, chosen)
        if got != want:
            _report("traversal oracle equivalence", False,
                    f"graph {checked}: {len(got)} vs {len(want)} paths")
        checked += 1
    elapsed = time.perf_counter() - start
    _report("traversal oracle equivalence", elapsed < 10.0,
            f"{checked} graphs, {elapsed:.2f}s")


def _random_path(rng) -> ReasoningPath:
    n = int(rng.integers(2, 4))
    while True:
        nodes = tuple(f"e{int(rng.integers(0, 12)):02d}" for _ in range(n))
        if len(set(nodes)) == len(nodes):
            break
    edges = tuple(
        PathEdge(relation=f"r{int(rng.integers(0, 8))}", triple_index=i,
                 direction="forward")
        for i in range(n - 1)
    )
    return ReasoningPath(nodes=nodes, edges=edges)


def test_scoring_properties():
    rng = np.random.default_rng(41)

    # Bounds on random fixtures.
    bounds_ok = True
    for _ in range(300):
        ents = tuple((f"e{i:02d}", 1.0) for i in range(int(rng.integers(0, 8))))
        rels = tuple((f"r{i}", 1.0) for i in range(int(rng.integers(0, 6))))
        important = ImportantSets(entities=ents, relations=rels)
        alpha = float(rng.random() * 3)
        beta = float(rng.random() * 3) + 1e-3
        cfg = PipelineConfig(alpha=alpha, beta=beta)
        score = score_path(_random_path(rng), important, cfg)
        bounds_ok &= 0.0 <= score <= alpha + beta + 1e-12
    _report("scoring bounds 0 <= Ref <= alpha+beta", bounds_ok)

    # Exact alpha+beta on full coverage.
    important = ImportantSets(
        entities=(("a", 1.0), ("b", 1.0), ("c", 1.0)),
        relations=(("r0", 1.0), ("r1", 1.0)),
    )
    full_path = ReasoningPath(
        nodes=("a", "b", "c"),
        edges=(
            PathEdge(relation="r0", triple_index=0, direction="forward"),
            PathEdge(relation="r1", triple_index=1, direction="forward"),
        ),
    )
    cfg = PipelineConfig(alpha=0.7, beta=0.3)
    exact = score_path(full_path, important, cfg)
    _report("full-coverage path scores exactly alpha+beta",
            exact == cfg.alpha + cfg.beta, f"score={exact}")

    # Ranking invariance under common positive scaling (dyadic factors keep
    # float products exact).
    important = ImportantSets(
        entities=tuple((f"e{i:02d}", 1.0) for i in range(6)),
        relations=tuple((f"r{i}", 1.0) for i in range(5)),
    )
    paths = [_random_path(rng) for _ in range(60)]
    invariant = True
    for scale in (0.5, 2.0, 8.0):
        orders = []
        for factor in (1.0, scale):
            cfg = PipelineConfig(alpha=0.5 * factor, beta=0.5 * factor)
            for p in paths:
                p.score = score_path(p, important, cfg)
            orders.append([p.key() for p in select_super_paths(paths, cfg)])
        invariant &= orders[0] == orders[1]
    _report("ranking invariant under positive scaling of (alpha, beta)",
            invariant)

    # Selection equals an independent sort-and-truncate oracle.
    agree = True
    for _ in range(500):
        batch = []
        for i in range(int(rng.integers(0, 25))):
            p = _random_path(rng)
            p.score = float(rng.choice([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]))
            batch.append(p)
        k = int(rng.integers(1, 12))
        cfg = PipelineConfig(paths_k=k)
        oracle = sorted(
            batch,
            key=lambda p: (
                -p.score, len(p.edges), p.nodes,
                tuple(e.relation for e in p.edges),
                tuple(e.direction for e in p.edges),
                tuple(e.triple_index for e in p.edges),
            ),
        )[:k]
        got = select_super_paths(batch, cfg)
        agree &= [p.key() for p in got] == [p.key() for p in oracle]
        agree &= len(got) == min(k, len(batch))
    _report("select_super_paths equals sort-and-truncate oracle "
            "(500 random sets)", agree)


def test_filtering_correctness():
    rng = np.random.default_rng(73)
    strict_ok = True
    monotone_ok = True
    for _ in range(300):
        n = int(rng.integers(0, 20))
        deltas = list(rng.normal(1.0, 2.5, n))
        paths = list(range(n))
        by_tau = {}
        for tau in (0.0, 1.0, 3.0):
            got = filter_corrective(paths, deltas, tau)
            want = [p for p, d in zip(paths, deltas) if d > tau]
            strict_ok &= got == want
            by_tau[tau] = set(got)
        monotone_ok &= by_tau[3.0] <= by_tau[1.0] <= by_tau[0.0]
    boundary = filter_corrective(["p"], [3.0], 3.0) == []
    _report("corrective filtering strict at tau in {0, 1, 3}",
            strict_ok and boundary)
    _report("corrective membership monotone in tau", monotone_ok)


def test_case_study_golden_replay(tmp_path):
    start = time.perf_counter()
    script = fixtures.write_script(
        tmp_path / "replay.jsonl", fixtures.replay_script_entries()
    )
    cfg = PipelineConfig(mock_script=str(script))
    gateway = load_mock_script(script)

    response, trace = answer_query(
        fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT, cfg, gateway
    )
    corrective = [trace.p_super[i] for i in trace.report.corrective_indexes()]
    path_ok = [p.nodes for p in corrective] == [fixtures.TARGET_PATH_NODES]
    answer_ok = is_correct(response, [fixtures.REPLAY_GOLD])

    raw = fixtures.replay_dataset_record()
    record = EvalRecord(
        id=raw["id"], question=raw["question"], context=raw["context"],
        gold_answers=tuple(raw["gold_answers"]),
        gold_spans=tuple(tuple(s) for s in raw["gold_spans"]),
    )
    result = run_eval([record], cfg, gateway)
    elapsed = time.perf_counter() - start
    _report(
        "case-study golden replay",
        path_ok and answer_ok and result.accuracy == 1.0 and elapsed < 2.0,
        f"path={corrective[0].nodes if corrective else None}, "
        f"accuracy={result.accuracy}, {elapsed:.2f}s",
    )


def test_cpr_bounds_and_fixtures():
    context = "Paris is the capital of France."
    record = EvalRecord(
        id="c", question="q", context=context,
        gold_answers=("Paris",), gold_spans=((0, len(context)),),
    )
    all_gold = cpr(context, record)
    disjoint = cpr("Bananas are yellow. Apples are red.", record)

    gold_sentence = "The answer is Paris city."
    noise_sentence = "Nothing useful over here."
    half_record = EvalRecord(
        id="h", question="q", context=gold_sentence,
        gold_answers=("Paris",), gold_spans=((0, len(gold_sentence)),),
    )
    half = cpr(gold_sentence + " " + noise_sentence, half_record)

    rng = np.random.default_rng(8)
    words = ["alpha", "beta", "Paris", "delta", "epsilon"]
    in_bounds = True
    for _ in range(200):
        processed = ". ".join(
            " ".join(words[int(i)] for i in rng.integers(0, 5, 4)).capitalize()
            for _ in range(int(rng.integers(1, 6)))
        ) + "."
        value = cpr(processed, record)
        in_bounds &= 0.0 <= value <= 1.0
    _report(
        "CPR bounds and fixtures",
        all_gold == 1.0 and disjoint == 0.0 and abs(half - 0.5) <= 0.05
        and in_bounds,
        f"all_gold={all_gold}, disjoint={disjoint}, half={half:.3f}",
    )


# ---------------------------------------------------------------------------
# Determinism over a synthetic dataset


_WORLD_TRIPLES = [
    {"head": "MACHINE", "relation": "SITS_IN", "tail": "BAY",
     "head_desc": "a factory machine", "rel_desc": "physical placement",
     "tail_desc": "a work bay", "evidence": "The machine sits in the bay."},
    {"head": "BAY", "relation": "PART_OF", "tail": "PLANT P7",
     "head_desc": "a work bay", "rel_desc": "administrative membership",
     "tail_desc": "the P7 plant", "evidence": "The bay belongs to plant P7."},
]


def _synthetic_script(tmp_path):
    triples_json = json.dumps(_WORLD_TRIPLES)
    key_json = json.dumps({
        "target_entities": ["machine"], "target_relations": ["houses"],
        "intent": "which plant houses the machine",
    })
    entries = [
        fixtures.gen_entry("Extract factual knowledge triples", triples_json,
                           fixtures.one_token(triples_json), regex=True),
        fixtures.gen_entry("Identify the key elements", key_json,
                           fixtures.one_token(key_json), regex=True),
        fixtures.gen_entry("Use the reference information below", "Plant P7.",
                           fixtures.sharp_tokens(["Plant", " P7", "."], p=0.95),
                           regex=True),
        fixtures.gen_entry("Answer the question from your own knowledge",
                           "Plant P9.",
                           fixtures.sharp_tokens(["Plant", " P9", "."], p=0.9),
                           regex=True),
    ]
    return fixtures.write_script(tmp_path / "synthetic.jsonl", entries)


def _synthetic_records(n=25):
    records = []
    for i in range(n):
        context = (
            f"Machine M{i} sits in bay B{i}. The bay belongs to plant P7. "
            f"A different plant P9 sits across the road."
        )
        gold = "P7" if i % 2 == 0 else "P9"
        record = {
            "id": f"rec-{i:02d}",
            "question": f"Which plant houses machine M{i}?",
            "context": context,
            "gold_answers": [gold],
        }
        if i % 2 == 0:
            record["gold_spans"] = [[0, len(f"Machine M{i} sits in bay B{i}.")]]
        records.append(
            EvalRecord(
                id=record["id"], question=record["question"],
                context=record["context"],
                gold_answers=tuple(record["gold_answers"]),
                gold_spans=tuple(tuple(s) for s in record.get("gold_spans", []))
                if "gold_spans" in record else None,
            )
        )
    return records


def test_determinism_byte_identical_outputs(tmp_path):
    script = _synthetic_script(tmp_path)
    records = _synthetic_records(25)
    blobs = []
    for run in range(2):
        cfg = PipelineConfig(mock_script=str(script))
        gateway = load_mock_script(script)
        result = run_eval(records, cfg, gateway)
        csv_path = tmp_path / f"results-{run}.csv"
        json_path = tmp_path / f"summary-{run}.json"
        write_results_csv(result, csv_path)
        write_summary_json(result, json_path)
        blobs.append((csv_path.read_bytes(), json_path.read_bytes()))
    identical = blobs[0] == blobs[1]
    accuracy = json.loads(blobs[0][1])["accuracy"]
    _report(
        "byte-identical CSV/JSON over two eval runs (25 records)",
        identical and 0.0 < accuracy < 1.0,
        f"accuracy={accuracy}",
    )


def test_graph_round_trip_structural_equality(tmp_path):
    rng = np.random.default_rng(1234)
    ok = True
    for i in range(100):
        graph = fixtures.random_graph(rng, max_nodes=20, max_edges=40)
        path = tmp_path / f"g{i}.json"
        save_graph(graph, path)
        ok &= load_graph(path) == graph
    replay_graph = build_graph(fixtures.replay_extractions())
    path = tmp_path / "replay-graph.json"
    save_graph(replay_graph, path)
    ok &= load_graph(path) == replay_graph
    _report("graph save/load structural equality (100 random + replay)", ok)

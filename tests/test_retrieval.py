"""Key elements, similarity ranking, traversal, scoring, contextualization."""

from __future__ import annotations

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures

import kgconflict
from kgconflict import (
    DanglingReference,
    EmptyInput,
    ImportantSets,
    ParseError,
    PipelineConfig,
    QueryKeyElements,
    ReasoningPath,
    ValidationError,
    build_graph,
    contextualize,
    enumerate_paths,
    extract_key_elements,
    load_mock_script,
    score_path,
    select_super_paths,
    top_k_important,
)
from kgconflict.retrieval import PathEdge, _max_cosines, contending_paths, cosine

CFG = PipelineConfig()


def _gw(tmp_path, entries):
    return load_mock_script(fixtures.write_script(tmp_path / "s.jsonl", entries))


# ---------------------------------------------------------------------------
# Key elements


def test_key_elements_scripted(tmp_path):
    reply = {"target_entities": ["France"], "target_relations": ["capital of"],
             "intent": "capital city"}
    gw = _gw(tmp_path, [
        fixtures.gen_entry("Identify the key elements", json.dumps(reply),
                           fixtures.one_token(json.dumps(reply)), regex=True),
    ])
    key = extract_key_elements("capital of France?", gw, CFG)
    assert key.target_entities == ("France",)
    assert key.target_relations == ("capital of",)
    assert key.intent == "capital city"


def test_key_elements_replay_query(replay_gateway):
    key = extract_key_elements(fixtures.REPLAY_QUESTION, replay_gateway, CFG)
    assert "Ciudad Deportiva" in key.target_entities


def test_key_elements_all_empty_falls_back_to_query(tmp_path):
    reply = {"target_entities": [], "target_relations": [], "intent": ""}
    gw = _gw(tmp_path, [
        fixtures.gen_entry("Identify the key elements", json.dumps(reply),
                           fixtures.one_token(json.dumps(reply)), regex=True),
    ])
    key = extract_key_elements("who owns X?", gw, CFG)
    assert key.target_entities == ("who owns X?",)


def test_key_elements_parse_error_falls_back(tmp_path):
    gw = _gw(tmp_path, [
        fixtures.gen_entry("Identify the key elements", "not json at all",
                           fixtures.one_token("not json at all"), regex=True),
    ])
    key = extract_key_elements("who owns X?", gw, CFG)
    assert key.target_entities == ("who owns X?",)


@pytest.mark.parametrize("reply", list(fixtures.HOSTILE_JSON_REPLIES.values()),
                         ids=list(fixtures.HOSTILE_JSON_REPLIES))
def test_key_elements_hostile_json_falls_back(tmp_path, reply):
    gw = _gw(tmp_path, [
        fixtures.gen_entry("Identify the key elements", reply,
                           fixtures.one_token(reply), regex=True),
    ])
    key = extract_key_elements("who owns X?", gw, CFG)
    assert key.target_entities == ("who owns X?",)


def test_key_elements_empty_query_rejected(tmp_path):
    gw = _gw(tmp_path, [])
    with pytest.raises(EmptyInput):
        extract_key_elements("  ", gw, CFG)


def test_query_key_elements_requires_something():
    with pytest.raises(ValidationError):
        QueryKeyElements()


# ---------------------------------------------------------------------------
# Similarity: the score top_k_important ranks an entity by


def _entity_scores(gw, head: str, key_entities: tuple[str, ...]) -> dict[str, float]:
    """top_k_important's score for each entity of a one-triple graph."""
    graph = build_graph([fixtures.make_extraction(head, "rel", "other")])
    key = QueryKeyElements(target_entities=key_entities)
    return dict(top_k_important(graph, key, PipelineConfig(), gw).entities)


# The other graph names ("rel", "other") need a vector of the same width.
_OTHER_NAMES = fixtures.embed_entry(".*", [1.0, 1.0], regex=True)


def test_similarity_identical_text_is_one(tmp_path):
    scores = _entity_scores(_gw(tmp_path, []), "alpha beta", ("alpha beta",))
    assert scores["alpha beta"] == pytest.approx(1.0, abs=1e-9)


def test_similarity_orthogonal_override_is_zero(tmp_path):
    gw = _gw(tmp_path, [
        fixtures.embed_entry("x", [1.0, 0.0]),
        fixtures.embed_entry("y", [0.0, 1.0]),
        _OTHER_NAMES,
    ])
    assert _entity_scores(gw, "x", ("y",))["x"] == pytest.approx(0.0, abs=1e-9)


def test_similarity_is_max_over_key_strings(tmp_path):
    gw = _gw(tmp_path, [
        fixtures.embed_entry("cand", [1.0, 0.0]),
        fixtures.embed_entry("k1", [0.0, 1.0]),
        fixtures.embed_entry("k2", [0.6, 0.8]),
        _OTHER_NAMES,
    ])
    cand = np.array([1.0, 0.0])
    expected = max(
        cosine(cand, np.array([0.0, 1.0])),
        cosine(cand, np.array([0.6, 0.8])),
    )
    score = _entity_scores(gw, "cand", ("k1", "k2"))["cand"]
    assert score == pytest.approx(expected, abs=1e-12)
    assert score == pytest.approx(0.6, abs=1e-9)


def _fsum_cosine(u, v):
    """Oracle: the same products, each sum correctly rounded by ``math.fsum``."""
    nu = math.sqrt(math.fsum(u * u))
    nv = math.sqrt(math.fsum(v * v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return min(max(math.fsum(u * v) / (nu * nv), -1.0), 1.0)


@pytest.mark.parametrize("dim, unit", [(64, True), (384, False)])
def test_ranking_cosine_is_one_formula_near_an_fsum_oracle(dim, unit):
    """The ranking scores with ``cosine``'s bits, within 4 eps of an exact-sum
    oracle; the clamp gives exactly +-1 and a zero vector exactly 0."""
    rng = np.random.default_rng(dim)
    vectors = rng.standard_normal((40, dim)) * (1.0 if unit else 7.3)
    if unit:
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    keys = [*vectors[30:], np.zeros(dim)]
    # Parallel and anti-parallel pairs, whose raw quotient can leave [-1, 1]
    # by an ulp so that the clamp applies, and a zero vector.
    parallel = [(s * k, k, s) for k in vectors[30:] for s in (3.0, -0.5)]
    candidates = [*vectors[:30], *(c for c, _, _ in parallel), np.zeros(dim)]
    rows = np.array([*candidates, *keys])
    names = [str(i) for i in range(len(rows))]
    key_rows = list(range(len(candidates), len(rows)))
    per_key = [_max_cosines(rows, [j], names) for j in key_rows]
    best = _max_cosines(rows, key_rows, names)
    eps = np.finfo(np.float64).eps
    for i, candidate in enumerate(candidates):
        scores = [cosine(candidate, k) for k in keys]
        assert [scored[i] for scored in per_key] == scores
        assert best[i] == max(scores)
        for k, score in zip(keys, scores):
            assert abs(score - _fsum_cosine(candidate, k)) <= 4 * eps
    clamped = 0
    for c, k, s in parallel:
        raw = (c * k).sum() / (np.sqrt((c * c).sum()) * np.sqrt((k * k).sum()))
        if abs(raw) > 1.0:
            clamped += 1
            assert cosine(c, k) == math.copysign(1.0, s)
    assert clamped
    zero = np.zeros(dim)
    assert all(cosine(zero, k) == 0.0 and cosine(k, zero) == 0.0 for k in keys)


def test_cosine_rejects_a_norm_past_float64():
    """Components past about 1e154 overflow the squared norm: ParseError, not
    a NaN score or an overflow warning."""
    huge, unit = np.array([1e200, 1e200]), np.array([1.0, 0.0])
    for u, v in ((huge, unit), (unit, huge)):
        with pytest.raises(ParseError, match="non-finite norm"):
            cosine(u, v)


def test_ranking_rejects_a_norm_past_float64_naming_its_text(tmp_path):
    gw = _gw(tmp_path, [fixtures.embed_entry("alpha", [1e200, 1e200]), _OTHER_NAMES])
    with pytest.raises(ParseError, match="'alpha'"):
        _entity_scores(gw, "alpha", ("beta",))


# Calls that reach a BLAS kernel, whose summation order the CPU selects.
_BLAS_CALLS = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot"}


def _blas_uses(tree: ast.AST):
    """(line, what) for each dot-like call, ``@`` and ``linalg`` name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in _BLAS_CALLS:
                yield node.lineno, name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        if any("linalg" in str(getattr(node, f, "")) for f in ("attr", "id", "name", "module")):
            yield node.lineno, "linalg"


def test_no_blas_kernel_in_the_package():
    """Scores sum in numpy's fixed pairwise order, never in a BLAS kernel."""
    sample = "np.dot(a, b)\na @ b\nnp.linalg.norm(a)\nfrom numpy.linalg import norm\n"
    assert sorted(_blas_uses(ast.parse(sample))) == [
        (1, "dot"), (2, "@"), (3, "linalg"), (4, "linalg")]
    found = [(path.name, *use)
             for path in sorted(Path(kgconflict.__file__).parent.glob("*.py"))
             for use in _blas_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


# ---------------------------------------------------------------------------
# Top-k important


def _tiny_graph():
    return build_graph([
        fixtures.make_extraction("alpha", "rel one", "beta"),
        fixtures.make_extraction("beta", "rel two", "gamma"),
    ])


def test_top_k_embeds_distinct_texts_in_one_call(tmp_path):
    calls = []

    class CountingGateway:
        def __init__(self, inner):
            self.inner = inner

        def generate(self, req):
            return self.inner.generate(req)

        def embed(self, texts):
            calls.append(list(texts))
            return self.inner.embed(texts)

    gw = CountingGateway(_gw(tmp_path, []))
    # Key strings repeat an entity name and a relation name.
    key = QueryKeyElements(target_entities=("alpha", "delta"),
                           target_relations=("rel two",), intent="alpha")
    top_k_important(_tiny_graph(), key, PipelineConfig(), gw)
    assert calls == [["alpha", "beta", "gamma", "rel one", "rel two", "delta"]]


def test_top_k_returns_all_when_k_exceeds_population(tmp_path):
    gw = _gw(tmp_path, [])
    graph = _tiny_graph()
    key = QueryKeyElements(target_entities=("alpha",))
    important = top_k_important(graph, key, PipelineConfig(k_similar=10), gw)
    assert len(important.entities) == 3
    assert len(important.relations) == 2
    assert all(-1.0 <= score <= 1.0 for _, score in important.entities)
    scores = [s for _, s in important.entities]
    assert scores == sorted(scores, reverse=True)


def test_top_k_tie_breaks_lexicographically(tmp_path):
    # Identical override vectors force score ties for every entity name.
    gw = _gw(tmp_path, [
        fixtures.embed_entry(".*", [1.0, 0.0], regex=True),
    ])
    graph = _tiny_graph()
    key = QueryKeyElements(target_entities=("anything",))
    important = top_k_important(graph, key, PipelineConfig(k_similar=2), gw)
    assert [eid for eid, _ in important.entities] == ["alpha", "beta"]
    assert [score for _, score in important.entities] == [1.0, 1.0]


def test_top_k_replay_contains_query_entity(replay_gateway):
    graph = build_graph(fixtures.replay_extractions())
    key = extract_key_elements(fixtures.REPLAY_QUESTION, replay_gateway, CFG)
    important = top_k_important(graph, key, PipelineConfig(), replay_gateway)
    assert "ciudad deportiva" in important.entity_ids()


def test_top_k_empty_graph(tmp_path):
    gw = _gw(tmp_path, [])
    important = top_k_important(
        build_graph([]), QueryKeyElements(target_entities=("x",)),
        PipelineConfig(), gw,
    )
    assert important.entities == ()
    assert important.relations == ()


# ---------------------------------------------------------------------------
# Path enumeration


def test_star_graph_paths():
    graph = build_graph([
        fixtures.make_extraction("a", "r", "b"),
        fixtures.make_extraction("a", "r", "c"),
    ])
    paths = enumerate_paths(graph, fixtures.important_from_ids(["a"]))
    keys = fixtures.path_key_set(paths)
    assert keys == {
        (("a", "b"), (("r", 0, "forward"),)),
        (("a", "c"), (("r", 1, "forward"),)),
    }


def test_chain_graph_paths():
    graph = build_graph([
        fixtures.make_extraction("a", "r1", "b"),
        fixtures.make_extraction("b", "r2", "c"),
    ])
    paths = enumerate_paths(graph, fixtures.important_from_ids(["a"]))
    keys = fixtures.path_key_set(paths)
    assert keys == {
        (("a", "b"), (("r1", 0, "forward"),)),
        (("a", "b", "c"), (("r1", 0, "forward"), ("r2", 1, "forward"))),
    }


def test_paths_traverse_reverse_edges():
    graph = build_graph([fixtures.make_extraction("a", "r", "b")])
    paths = enumerate_paths(graph, fixtures.important_from_ids(["b"]))
    assert fixtures.path_key_set(paths) == {(("b", "a"), (("r", 0, "reverse"),))}


def test_self_loops_are_excluded():
    graph = build_graph([
        fixtures.make_extraction("a", "r", "a"),
        fixtures.make_extraction("a", "r2", "b"),
    ])
    paths = enumerate_paths(graph, fixtures.important_from_ids(["a"]))
    assert fixtures.path_key_set(paths) == {(("a", "b"), (("r2", 1, "forward"),))}


def test_enumerate_matches_exhaustive_oracle_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(60):
        graph = fixtures.random_graph(rng, max_nodes=12, max_edges=30)
        ids = sorted(graph.entities)
        if not ids:
            continue
        count = int(rng.integers(1, min(len(ids), 5) + 1))
        chosen = [ids[int(i)] for i in rng.choice(len(ids), count, replace=False)]
        important = fixtures.important_from_ids(chosen)
        paths = enumerate_paths(graph, important)
        assert len(paths) == len(fixtures.path_key_set(paths)), "duplicates"
        for path in paths:
            path.validate(graph)
        assert fixtures.path_key_set(paths) == fixtures.oracle_simple_paths(
            graph, chosen
        )


def test_enumerate_repeated_start_ids_yield_each_path_once():
    # A triple extracted from two segments, a self-loop and a cycle.
    graph = build_graph([
        fixtures.make_extraction("a", "r", "b", segment_id=0),
        fixtures.make_extraction("a", "r", "b", segment_id=1),
        fixtures.make_extraction("b", "loop", "b"),
        fixtures.make_extraction("b", "r2", "c"),
        fixtures.make_extraction("c", "r3", "a"),
    ])
    once = enumerate_paths(graph, fixtures.important_from_ids(["a", "b"]))
    repeated = enumerate_paths(graph, fixtures.important_from_ids(["a", "b", "a", "b"]))
    keys = [p.key() for p in repeated]
    assert len(keys) == len(set(keys))
    assert keys == [p.key() for p in once]
    assert fixtures.path_key_set(repeated) == fixtures.oracle_simple_paths(
        graph, ["a", "b"]
    )


# ---------------------------------------------------------------------------
# Scoring and selection


def _path(nodes, relations, score=0.0):
    edges = tuple(
        PathEdge(relation=r, triple_index=i, direction="forward")
        for i, r in enumerate(relations)
    )
    return ReasoningPath(nodes=tuple(nodes), edges=edges, score=score)


def test_score_full_coverage_is_alpha_plus_beta():
    important = ImportantSets(
        entities=(("a", 1.0), ("b", 1.0)), relations=(("r", 1.0),)
    )
    cfg = PipelineConfig(alpha=0.5, beta=0.5)
    path = _path(["a", "b"], ["r"])
    assert score_path(path, important, cfg) == pytest.approx(1.0)


def test_score_disjoint_path_is_zero():
    important = ImportantSets(
        entities=(("x", 1.0),), relations=(("q", 1.0),)
    )
    path = _path(["a", "b"], ["r"])
    assert score_path(path, important, PipelineConfig()) == 0.0


def test_score_hand_computed_instance():
    # 4 important entities, path covers 2; 2 important relations, path covers 1.
    important = ImportantSets(
        entities=(("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0)),
        relations=(("r", 1.0), ("q", 1.0)),
    )
    cfg = PipelineConfig(alpha=0.5, beta=0.5)
    path = _path(["a", "b", "z"], ["r", "r"])
    entity_cover = len({"a", "b", "z"} & {"a", "b", "c", "d"})
    relation_cover = len({"r"} & {"r", "q"})
    expected = 0.5 * entity_cover / 4 + 0.5 * relation_cover / 2
    assert expected == 0.5
    assert score_path(path, important, cfg) == pytest.approx(expected)


def test_score_empty_important_set_contributes_zero():
    important = ImportantSets(entities=(("a", 1.0),), relations=())
    path = _path(["a", "b"], ["r"])
    assert score_path(path, important, PipelineConfig(alpha=1.0, beta=1.0)) == 1.0


@settings(max_examples=100, deadline=None)
@given(
    n_imp_e=st.integers(min_value=0, max_value=6),
    n_imp_r=st.integers(min_value=0, max_value=6),
    covered_e=st.integers(min_value=0, max_value=3),
    covered_r=st.integers(min_value=0, max_value=2),
    alpha=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    beta=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
def test_score_bounds_property(n_imp_e, n_imp_r, covered_e, covered_r, alpha, beta):
    if alpha + beta <= 0:
        alpha = 0.5
        beta = 0.5
    cfg = PipelineConfig(alpha=alpha, beta=beta)
    ents = tuple((f"e{i}", 1.0) for i in range(n_imp_e))
    rels = tuple((f"r{i}", 1.0) for i in range(n_imp_r))
    important = ImportantSets(entities=ents, relations=rels)
    nodes = [f"e{i}" for i in range(min(covered_e, n_imp_e))]
    nodes += [f"z{i}" for i in range(3 - len(nodes))]
    relations = [f"r{i}" for i in range(min(covered_r, n_imp_r))] or ["zz"]
    relations = (relations * 2)[:2]
    path = _path(nodes, relations)
    score = score_path(path, important, cfg)
    assert 0.0 <= score <= alpha + beta + 1e-12


def test_ranking_invariant_under_dyadic_scaling():
    rng = np.random.default_rng(3)
    important = ImportantSets(
        entities=tuple((f"e{i}", 1.0) for i in range(5)),
        relations=tuple((f"r{i}", 1.0) for i in range(4)),
    )
    paths = []
    for i in range(40):
        n = int(rng.integers(2, 4))
        nodes = [f"e{rng.integers(0, 9)}" for _ in range(n)]
        while len(set(nodes)) != len(nodes):
            nodes = [f"e{rng.integers(0, 9)}" for _ in range(n)]
        rels = [f"r{rng.integers(0, 7)}" for _ in range(n - 1)]
        paths.append(_path(nodes, rels))
    for scale in (0.5, 2.0, 8.0):
        base_cfg = PipelineConfig(alpha=0.5, beta=0.5)
        scaled_cfg = PipelineConfig(alpha=0.5 * scale, beta=0.5 * scale)
        for cfg in (base_cfg, scaled_cfg):
            for p in paths:
                p.score = score_path(p, important, cfg)
            if cfg is base_cfg:
                base_order = [p.nodes for p in select_super_paths(paths, cfg)]
            else:
                scaled_order = [p.nodes for p in select_super_paths(paths, cfg)]
        assert base_order == scaled_order


def test_select_returns_all_when_k_exceeds_count():
    paths = [_path(["a", "b"], ["r"], score=0.2),
             _path(["c", "d"], ["r"], score=0.9),
             _path(["e", "f"], ["r"], score=0.5)]
    cfg = PipelineConfig(paths_k=10)
    selected = select_super_paths(paths, cfg)
    assert [p.score for p in selected] == [0.9, 0.5, 0.2]


def test_select_tie_breaks_shorter_then_lexicographic():
    long_path = _path(["a", "b", "c"], ["r", "r"], score=0.5)
    short_zz = _path(["z", "z2"], ["r"], score=0.5)
    short_aa = _path(["a", "b"], ["r"], score=0.5)
    selected = select_super_paths([long_path, short_zz, short_aa],
                                  PipelineConfig(paths_k=3))
    assert [p.nodes for p in selected] == [
        ("a", "b"), ("z", "z2"), ("a", "b", "c")
    ]


def test_select_matches_sort_oracle_on_random_scores():
    rng = np.random.default_rng(11)
    for _ in range(100):
        paths = []
        for i in range(int(rng.integers(1, 30))):
            n = int(rng.integers(2, 4))
            nodes = tuple(f"n{rng.integers(0, 20):02d}" for _ in range(n))
            if len(set(nodes)) != len(nodes):
                continue
            rels = tuple(f"r{rng.integers(0, 5)}" for _ in range(n - 1))
            score = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]))
            paths.append(_path(nodes, rels, score=score))
        k = int(rng.integers(1, 12))
        cfg = PipelineConfig(paths_k=k)
        expected = sorted(
            paths,
            key=lambda p: (
                -p.score, len(p.edges), p.nodes,
                tuple(e.relation for e in p.edges),
                tuple(e.direction for e in p.edges),
                tuple(e.triple_index for e in p.edges),
            ),
        )[:k]
        got = select_super_paths(paths, cfg)
        assert [p.key() for p in got] == [p.key() for p in expected]
        assert len(got) == min(k, len(paths))
        # Determinism: a second call reproduces the exact ordered output.
        assert [p.key() for p in select_super_paths(paths, cfg)] == [
            p.key() for p in got
        ]


_NODES = ["a", "b", "c", "d", "e"]
_RELATIONS = ["r0", "r1", "r2", "r3"]


@st.composite
def _retrieval_inputs(draw):
    """A small graph that may repeat an extraction and hold self-loops and
    parallel edges, important sets (either may be empty; E may name an id
    twice or one off the graph), and a config whose ``paths_k`` may exceed
    the path count. With ``tie``, alpha = beta and |E| = |R|, so buckets
    with different coverage score the same float."""
    triples = draw(st.lists(st.tuples(st.sampled_from(_NODES), st.sampled_from(_RELATIONS),
                                      st.sampled_from(_NODES)), max_size=14))
    starts = draw(st.lists(st.sampled_from(_NODES + ["off-graph"]), max_size=4))
    tie = draw(st.booleans())
    weights = st.sampled_from([0.0, 0.25, 0.3, 0.5, 1.0])
    alpha = draw(weights)
    beta = alpha if tie else draw(weights)
    if alpha + beta == 0:
        alpha = beta = 0.5
    n_relations = len(set(starts)) if tie else draw(st.integers(0, len(_RELATIONS)))
    relations = draw(st.permutations(_RELATIONS + ["r-off"]))[:n_relations]
    graph = build_graph(fixtures.make_extraction(h, r, t) for h, r, t in triples)
    cfg = PipelineConfig(alpha=alpha, beta=beta, paths_k=draw(st.integers(1, 40)))
    return graph, fixtures.important_from_ids(starts, relations), cfg


@settings(max_examples=400, deadline=None)
@given(_retrieval_inputs())
def test_contending_paths_select_what_scoring_every_path_selects(inputs):
    """Production's count and selection equal enumerate -> score every path
    -> select: the same keys, the same scores, in the same order."""
    graph, important, cfg = inputs
    every = enumerate_paths(graph, important)
    for path in every:
        path.score = score_path(path, important, cfg)
    expected = select_super_paths(every, cfg)

    count, contenders = contending_paths(graph, important, cfg)
    got = select_super_paths(contenders, cfg)
    assert count == len(every)
    assert [(p.key(), p.score) for p in got] == [(p.key(), p.score) for p in expected]
    # The contenders keep enumerate_paths' order.
    kept = {p.key() for p in contenders}
    assert [p.key() for p in contenders] == [p.key() for p in every if p.key() in kept]


# ---------------------------------------------------------------------------
# Contextualization


def test_contextualize_replay_path():
    graph = build_graph(fixtures.replay_extractions())
    path = ReasoningPath(
        nodes=fixtures.TARGET_PATH_NODES,
        edges=(
            PathEdge(relation="has_seat", triple_index=1, direction="forward"),
            PathEdge(relation="located_in", triple_index=2, direction="forward"),
        ),
    )
    rendered = contextualize(path, graph)
    assert "MUNICIPALITY OF NUEVO LAREDO" in rendered
    assert "city located within the state" in rendered
    assert rendered.startswith(f"Path: {fixtures.TARGET_PATH_MARKER}")
    assert path.rendered_context == rendered


def test_contextualize_one_edge_path_has_one_arrow():
    graph = build_graph([fixtures.make_extraction("a", "r", "b")])
    path = ReasoningPath(
        nodes=("a", "b"),
        edges=(PathEdge(relation="r", triple_index=0, direction="forward"),),
    )
    rendered = contextualize(path, graph)
    assert rendered.count("-->") == 1
    assert rendered.splitlines()[0] == "Path: a --r--> b"


def test_contextualize_reverse_edge_arrow():
    graph = build_graph([fixtures.make_extraction("a", "r", "b")])
    path = ReasoningPath(
        nodes=("b", "a"),
        edges=(PathEdge(relation="r", triple_index=0, direction="reverse"),),
    )
    rendered = contextualize(path, graph)
    assert rendered.splitlines()[0] == "Path: b <--r-- a"


def test_contextualize_empty_descriptions_no_crash():
    extraction = fixtures.TripleExtraction(
        triple=fixtures.Triple(head="a", relation="r", tail="b",
                               source_segment=0, evidence=""),
        head_surface="a", relation_surface="r", tail_surface="b",
        head_desc="", rel_desc="", tail_desc="",
    )
    graph = build_graph([extraction])
    path = ReasoningPath(
        nodes=("a", "b"),
        edges=(PathEdge(relation="r", triple_index=0, direction="forward"),),
    )
    rendered = contextualize(path, graph)
    assert "- a: " in rendered
    assert "- b: " in rendered


def test_contextualize_intersects_with_important_sets():
    graph = build_graph([
        fixtures.make_extraction("a", "r", "b"),
        fixtures.make_extraction("b", "q", "c"),
    ])
    path = ReasoningPath(
        nodes=("a", "b", "c"),
        edges=(
            PathEdge(relation="r", triple_index=0, direction="forward"),
            PathEdge(relation="q", triple_index=1, direction="forward"),
        ),
    )
    important = ImportantSets(entities=(("b", 1.0),), relations=(("q", 1.0),))
    rendered = contextualize(path, graph, important)
    lines = rendered.splitlines()
    entities_idx = lines.index("Entities:")
    relations_idx = lines.index("Relations:")
    assert lines[entities_idx + 1 : relations_idx] == ["- b: desc of b"]
    assert lines[relations_idx + 1 :] == ["- q: desc of q"]


def test_contextualize_dedupes_repeated_relation():
    graph = build_graph([
        fixtures.make_extraction("a", "r", "b"),
        fixtures.make_extraction("b", "r", "c"),
    ])
    path = ReasoningPath(
        nodes=("a", "b", "c"),
        edges=(
            PathEdge(relation="r", triple_index=0, direction="forward"),
            PathEdge(relation="r", triple_index=1, direction="forward"),
        ),
    )
    rendered = contextualize(path, graph)
    relations_block = rendered.split("Relations:")[1]
    assert relations_block.count("- r:") == 1


def test_top_k_caps_relations_at_k(tmp_path):
    gw = _gw(tmp_path, [])
    graph = build_graph([
        fixtures.make_extraction("a", f"rel{i}", "b") for i in range(6)
    ])
    key = QueryKeyElements(target_entities=("a",))
    important = top_k_important(graph, key, PipelineConfig(k_similar=3), gw)
    assert len(important.relations) == 3
    assert len(important.entities) == 2


def test_contextualize_dangling_reference():
    graph = build_graph([fixtures.make_extraction("a", "r", "b")])
    path = ReasoningPath(
        nodes=("a", "ghost"),
        edges=(PathEdge(relation="r", triple_index=0, direction="forward"),),
    )
    with pytest.raises(DanglingReference):
        contextualize(path, graph)


def test_super_paths_start_at_important_entities(replay_gateway):
    graph = build_graph(fixtures.replay_extractions())
    key = extract_key_elements(fixtures.REPLAY_QUESTION, replay_gateway, CFG)
    cfg = PipelineConfig()
    important = top_k_important(graph, key, cfg, replay_gateway)
    paths = enumerate_paths(graph, important)
    for p in paths:
        p.score = score_path(p, important, cfg)
    for p in select_super_paths(paths, cfg):
        assert p.nodes[0] in important.entity_ids()

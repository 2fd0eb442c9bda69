"""Entropy metric, baselines, corrective filtering, and resolution."""

from __future__ import annotations

import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures

from kgconflict import (
    EmptySequence,
    FallbackExhausted,
    PipelineConfig,
    QueryTrace,
    ReasoningPath,
    TokenCandidate,
    TokenLogprobs,
    TokenPosition,
    ValidationError,
    filter_corrective,
    load_mock_script,
    mean_token_entropy,
    parametric_baseline,
    resolve,
)
from kgconflict import conflict
from kgconflict.conflict import CONTEXT_DELIMITER, plain_answer
from kgconflict.prompts import ANSWER_AUGMENTED, load_template, render

def _tokens(position_logprobs: list[list[float]]) -> TokenLogprobs:
    positions = []
    for i, lps in enumerate(position_logprobs):
        cands = tuple(
            TokenCandidate(token=f"t{i}c{j}", logprob=lp)
            for j, lp in enumerate(lps)
        )
        positions.append(TokenPosition(token=f"t{i}c0", candidates=cands))
    return TokenLogprobs(positions=tuple(positions))


def entropy_oracle_bits(position_logprobs: list[list[float]]) -> float:
    """Independent brute-force: plain exp + fsum renormalization, log2 sum."""
    per_position = []
    for lps in position_logprobs:
        masses = [math.exp(lp) for lp in lps]
        total = math.fsum(masses)
        probs = [m / total for m in masses]
        h = -math.fsum(p * math.log2(p) for p in probs if p > 0.0)
        per_position.append(h)
    return math.fsum(per_position) / len(per_position)


def entropy_numpy_reference(position_logprobs: list[list[float]]) -> float:
    """The numpy formulation the ``math`` sums replaced. Its bits follow the
    CPU's SIMD ``exp``/``log2`` and numpy's pairwise sums, so it agrees with
    ``mean_token_entropy`` only to within rounding."""
    per_position = []
    for lps in position_logprobs:
        logprobs = np.array(lps, dtype=np.float64)
        weights = np.exp(logprobs - logprobs.max())
        probs = weights / weights.sum()
        nonzero = probs > 0.0
        per_position.append(-float(np.sum(probs[nonzero] * np.log2(probs[nonzero]))))
    return float(np.mean(per_position))


def _gw(tmp_path, entries):
    return load_mock_script(fixtures.write_script(tmp_path / "s.jsonl", entries))


def _trace(paths=()) -> QueryTrace:
    """A trace of the question every resolution test asks, holding ``paths``."""
    return QueryTrace(mode="full", question="q?", p_super=list(paths))


# ---------------------------------------------------------------------------
# mean_token_entropy


@pytest.mark.parametrize("k, bits", [(1, 0.0), (2, 1.0), (4, 2.0)])
def test_uniform_distribution_entropy_is_exact(k, bits):
    lp = math.log(1.0 / k)
    assert mean_token_entropy(_tokens([[lp] * k] * 3)) == bits


def test_uniform_over_four_is_two_bits():
    lp = math.log(0.25)
    assert mean_token_entropy(_tokens([[lp, lp, lp, lp]])) == pytest.approx(
        2.0, abs=1e-12
    )


def test_deterministic_sequence_is_zero():
    tokens = _tokens([[0.0], [0.0], [0.0]])
    assert mean_token_entropy(tokens) == 0.0


def test_entropy_matches_oracle_on_random_distributions():
    rng = np.random.default_rng(123)
    for _ in range(200):
        length = int(rng.integers(1, 50))
        positions = []
        for _ in range(length):
            k = int(rng.integers(1, 11))
            weights = rng.random(k) + 1e-3
            probs = weights / weights.sum()
            positions.append([math.log(p) for p in probs])
        tokens = _tokens(positions)
        assert mean_token_entropy(tokens) == pytest.approx(
            entropy_oracle_bits(positions), abs=1e-9
        )


def test_entropy_renormalizes_partial_mass():
    # Two candidates at raw mass 0.25 each renormalize to a uniform pair.
    lp = math.log(0.25)
    assert mean_token_entropy(_tokens([[lp, lp]])) == pytest.approx(1.0, abs=1e-12)


def test_entropy_empty_sequence_rejected():
    with pytest.raises(EmptySequence):
        mean_token_entropy(TokenLogprobs(positions=()))


def test_entropy_single_candidate_with_tiny_mass_is_zero():
    # Renormalization turns a lone candidate into certainty.
    assert mean_token_entropy(_tokens([[-700.0]])) == 0.0


def test_entropy_extreme_logprob_spread_is_finite():
    value = mean_token_entropy(_tokens([[-0.0001, -745.0]]))
    assert 0.0 <= value < 1e-8


@settings(max_examples=100, deadline=None)
@given(
    data=st.lists(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            min_size=1, max_size=10,
        ),
        min_size=1, max_size=20,
    ),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_entropy_permutation_and_repetition_invariance(data, seed):
    positions = []
    for weights in data:
        total = math.fsum(weights)
        positions.append([math.log(w / total) for w in weights])
    base = mean_token_entropy(_tokens(positions))
    rng = np.random.default_rng(seed)
    order = list(rng.permutation(len(positions)))
    # The sums are correctly rounded, so reordering positions or candidates
    # leaves every bit alone.
    permuted = mean_token_entropy(_tokens([positions[i] for i in order]))
    assert permuted == base
    reversed_candidates = mean_token_entropy(_tokens([lps[::-1] for lps in positions]))
    assert reversed_candidates == base
    doubled = mean_token_entropy(_tokens(positions + positions))
    assert doubled == pytest.approx(base, abs=1e-12)
    max_k = max(len(w) for w in data)
    assert 0.0 <= base <= math.log2(max_k) + 1e-12
    for lps in positions:
        assert 0.0 <= mean_token_entropy(_tokens([lps])) <= math.log2(len(lps)) + 1e-12
    assert base == pytest.approx(entropy_numpy_reference(positions), abs=1e-12)


# ---------------------------------------------------------------------------
# Baselines via scripted backend


def test_parametric_baseline_uniform_pairs(tmp_path):
    tokens = [
        {"token": "an", "candidates": [["an", math.log(0.5)],
                                       ["x", math.log(0.5)]]},
        {"token": "swer", "candidates": [["swer", math.log(0.5)],
                                         ["y", math.log(0.5)]]},
    ]
    gw = _gw(tmp_path, [
        fixtures.gen_entry("Answer the question from your own knowledge",
                           "answer", tokens, regex=True),
    ])
    answer, h = parametric_baseline("q?", gw, PipelineConfig())
    assert answer == "answer"
    assert h == pytest.approx(1.0, abs=1e-12)


def test_parametric_baseline_deterministic_answer_zero_entropy(tmp_path):
    gw = _gw(tmp_path, [
        fixtures.gen_entry("Answer the question from your own knowledge",
                           "fact", fixtures.one_token("fact"), regex=True),
    ])
    _, h = parametric_baseline("q?", gw, PipelineConfig())
    assert h == 0.0


def test_replay_parametric_answer_differs_from_gold(replay_gateway):
    answer, h = parametric_baseline(
        fixtures.REPLAY_QUESTION, replay_gateway, PipelineConfig()
    )
    assert "Sinaloa" not in answer
    assert h == pytest.approx(fixtures.H_PARAM_BITS, abs=1e-12)


def _rendered_path(context: str) -> ReasoningPath:
    from kgconflict.retrieval import PathEdge

    return ReasoningPath(
        nodes=("a", "b"),
        edges=(PathEdge(relation="r", triple_index=0, direction="forward"),),
        rendered_context=context,
    )


def test_same_distribution_gives_zero_delta(tmp_path):
    dist = fixtures.sharp_tokens(["same"], p=0.7)
    gw = _gw(tmp_path, [
        fixtures.gen_entry("Answer the question from your own knowledge",
                           "same", dist, regex=True),
        fixtures.gen_entry("Use the reference information below",
                           "same", dist, regex=True),
    ])
    report = conflict.entropy_filtered_response(
        _trace(), ["ctx"], gw, PipelineConfig()
    ).report
    (probe,) = report.per_path
    assert probe.h_aug == report.h_param
    assert probe.delta_h == 0.0


def test_entropy_direction_of_change(tmp_path):
    flat = fixtures.uniform_tokens(["flat"])        # 2 bits
    sharp = fixtures.sharp_tokens(["calm"], p=0.99)  # ~0.08 bits
    base = fixtures.sharp_tokens(["base"], p=0.9)    # ~0.47 bits
    gw = _gw(tmp_path, [
        fixtures.gen_entry("conflicting evidence", "flat", flat, regex=True),
        fixtures.gen_entry("supporting evidence", "calm", sharp, regex=True),
        fixtures.gen_entry("Answer the question from your own knowledge",
                           "base", base, regex=True),
    ])
    report = conflict.entropy_filtered_response(
        _trace(), ["conflicting evidence", "supporting evidence"], gw, PipelineConfig()
    ).report
    conflicting, supporting = report.per_path
    assert report.h_param == pytest.approx(fixtures.two_way_entropy_bits(0.9), abs=1e-12)
    assert conflicting.h_aug == pytest.approx(2.0, abs=1e-12)
    assert supporting.h_aug == pytest.approx(
        fixtures.two_way_entropy_bits(0.99), abs=1e-12
    )
    assert conflicting.delta_h == conflicting.h_aug - report.h_param > 0
    assert supporting.delta_h == supporting.h_aug - report.h_param < 0


def test_resolve_requires_rendered_context(tmp_path):
    gw = _gw(tmp_path, [])
    path = _rendered_path("x")
    path.rendered_context = None
    with pytest.raises(ValidationError, match="rendered context"):
        resolve(_trace([path]), gw, PipelineConfig())


def test_unfiltered_response_answers_from_every_context_without_a_probe(tmp_path):
    # Only the final answer is scripted: a probe would miss the script.
    gw = _gw(tmp_path, [fixtures.gen_entry(
        "Use the reference information below", "ans",
        fixtures.sharp_tokens(["ans"], p=0.9), regex=True,
    )])
    cfg = PipelineConfig(fallback="raw_context")
    outcome = conflict.entropy_filtered_response(
        _trace(), ["a", "b"], gw, cfg, raw_context="raw", filtered=False
    )
    assert outcome.report is None
    assert outcome.final_context == "a" + conflict.CONTEXT_DELIMITER + "b"
    assert (outcome.response, outcome.fallback_used) == ("ans", "none")
    outcome = conflict.entropy_filtered_response(
        _trace(), [], gw, cfg, raw_context="raw", filtered=False
    )
    assert (outcome.final_context, outcome.fallback_used) == ("raw", "raw_context")
    with pytest.raises(FallbackExhausted):
        conflict.entropy_filtered_response(_trace(), [], gw, cfg, filtered=False)


# ---------------------------------------------------------------------------
# filter_corrective


def test_filter_corrective_strict_threshold():
    paths = ["p0", "p1", "p2"]
    assert filter_corrective(paths, [1.2, 0.3, 2.5], tau=1.0) == ["p0", "p2"]


def test_filter_corrective_all_below_is_empty():
    assert filter_corrective(["a", "b"], [0.1, -0.5], tau=1.0) == []


def test_filter_corrective_boundary_is_strict():
    assert filter_corrective(["a"], [3.0], tau=3.0) == []


def test_filter_corrective_preserves_order():
    paths = list("abcdef")
    deltas = [5.0, 0.0, 4.0, 9.0, -1.0, 3.1]
    assert filter_corrective(paths, deltas, tau=3.0) == ["a", "c", "d", "f"]


def test_filter_monotonic_in_tau():
    rng = np.random.default_rng(5)
    for _ in range(50):
        paths = list(range(int(rng.integers(0, 12))))
        deltas = list(rng.normal(1.0, 2.0, len(paths)))
        smaller = set(filter_corrective(paths, deltas, tau=1.0))
        larger = set(filter_corrective(paths, deltas, tau=3.0))
        assert larger <= smaller


# ---------------------------------------------------------------------------
# resolve


def _resolution_entries(deltas_flat: list[bool]):
    """Parametric plus one augmented entry per context marker ctx<i>."""
    entries = []
    for i, flat in enumerate(deltas_flat):
        dist = (fixtures.uniform_tokens(["hot"]) if flat
                else fixtures.sharp_tokens(["cold"], p=0.95))
        text = "hot" if flat else "cold"
        entries.append(
            fixtures.gen_entry(f"ctx{i}\\b", text, dist, regex=True)
        )
    entries.append(
        fixtures.gen_entry("Use the reference information below", "raw",
                           fixtures.one_token("raw"), regex=True)
    )
    entries.append(
        fixtures.gen_entry("Answer the question from your own knowledge",
                           "base", fixtures.sharp_tokens(["base"], p=0.9),
                           regex=True)
    )
    return entries


def _paths(n):
    return [_rendered_path(f"ctx{i} content") for i in range(n)]


def test_resolve_selects_corrective_paths(tmp_path):
    gw = _gw(tmp_path, _resolution_entries([False, True, False]))
    outcome = resolve(_trace(_paths(3)), gw, PipelineConfig(tau=1.0))
    assert outcome.fallback_used == "none"
    assert [p.rendered_context for p in outcome.corrective_paths] == [
        "ctx1 content"
    ]
    assert outcome.final_context == "ctx1 content"
    assert outcome.response == "hot"
    flags = [p.corrective for p in outcome.report.per_path]
    assert flags == [False, True, False]
    # Corrective flags reconstruct the corrective set exactly.
    assert outcome.report.corrective_indexes() == [1]


def test_resolve_concatenates_multiple_corrective_contexts(tmp_path):
    entries = _resolution_entries([True, False, True])
    # The concatenated two-context prompt needs its own entry; the ctx0
    # entry would match first, which is fine for response selection.
    gw = _gw(tmp_path, entries)
    outcome = resolve(_trace(_paths(3)), gw, PipelineConfig(tau=1.0))
    assert outcome.final_context == "ctx0 content\n-----\nctx2 content"
    assert [p.rendered_context for p in outcome.corrective_paths] == [
        "ctx0 content", "ctx2 content"
    ]


def test_resolve_falls_back_to_top_delta(tmp_path):
    gw = _gw(tmp_path, _resolution_entries([False, False]))
    outcome = resolve(_trace(_paths(2)), gw,
                      PipelineConfig(tau=5.0, fallback="top_delta"))
    assert outcome.fallback_used == "top_delta"
    assert outcome.corrective_paths == []
    # Equal deltas: the first maximal path wins deterministically.
    assert outcome.final_context == "ctx0 content"


def test_resolve_takes_an_unset_tau_from_the_model_table(tmp_path):
    # The corrective path's delta (~1.5 bits) clears 1.0 but not Qwen's 3.0.
    gw = _gw(tmp_path, _resolution_entries([False, True]))
    outcome = resolve(_trace(_paths(2)), gw, PipelineConfig(model_id="Qwen2.5-7B-Instruct"))
    assert outcome.report.tau == 3.0
    assert outcome.fallback_used == "top_delta"


def test_resolve_raw_context_fallback_when_no_paths(tmp_path):
    gw = _gw(tmp_path, _resolution_entries([]))
    outcome = resolve(_trace([]), gw, PipelineConfig(tau=1.0),
                      raw_context="the raw retrieved text")
    assert outcome.fallback_used == "raw_context"
    assert outcome.response == "raw"
    assert outcome.report.per_path == []


def test_resolve_configured_raw_fallback_wins_over_paths(tmp_path):
    gw = _gw(tmp_path, _resolution_entries([False]))
    outcome = resolve(_trace(_paths(1)), gw,
                      PipelineConfig(tau=5.0, fallback="raw_context"),
                      raw_context="the raw retrieved text")
    assert outcome.fallback_used == "raw_context"


def test_resolve_raw_fallback_cascades_to_top_delta_without_raw(tmp_path):
    gw = _gw(tmp_path, _resolution_entries([False]))
    outcome = resolve(_trace(_paths(1)), gw,
                      PipelineConfig(tau=5.0, fallback="raw_context"))
    assert outcome.fallback_used == "top_delta"


def test_resolve_exhausted_without_paths_or_raw(tmp_path):
    gw = _gw(tmp_path, [])
    with pytest.raises(FallbackExhausted):
        resolve(_trace([]), gw, PipelineConfig())


def test_resolve_corrective_nonempty_implies_no_fallback(tmp_path):
    gw = _gw(tmp_path, _resolution_entries([True]))
    outcome = resolve(_trace(_paths(1)), gw, PipelineConfig(tau=1.0))
    assert outcome.corrective_paths and outcome.fallback_used == "none"


def test_resolve_deterministic_across_calls(tmp_path):
    gw = _gw(tmp_path, _resolution_entries([False, True]))
    cfg = PipelineConfig(tau=1.0)
    first = resolve(_trace(_paths(2)), gw, cfg)
    second = resolve(_trace(_paths(2)), gw, cfg)
    assert first.response == second.response
    assert first.report == second.report
    assert first.final_context == second.final_context


def test_resolve_parallel_equals_serial(tmp_path):
    gw = _gw(tmp_path, _resolution_entries([False, True, False, True]))
    cfg = PipelineConfig(tau=1.0)
    serial = resolve(_trace(_paths(4)), gw, cfg)
    parallel = resolve(_trace(_paths(4)), gw, replace(cfg, parallelism=4))
    assert serial.report == parallel.report
    assert serial.response == parallel.response


@pytest.mark.parametrize("flat, settings, raw, final_call", [
    pytest.param([False, True, False], {}, None, False, id="one-corrective"),
    pytest.param([False, False], {"tau": 5.0}, None, False, id="top-delta"),
    pytest.param([False, True, False], {"temperature": 0.5}, None, True,
                 id="temperature-above-0"),
    pytest.param([True, False, True], {}, None, True, id="joined-correctives"),
    pytest.param([False], {"tau": 5.0, "fallback": "raw_context"}, "raw text", True,
                 id="raw-fallback"),
])
@pytest.mark.parametrize("parallelism", [1, 4])
def test_final_answer_reuses_only_an_identical_probe_at_temperature_0(
    tmp_path, flat, settings, raw, final_call, parallelism
):
    gw = fixtures.RecordingGateway(_gw(tmp_path, _resolution_entries(flat)))
    cfg = PipelineConfig(**{"tau": 1.0, "parallelism": parallelism, **settings})
    outcome = resolve(_trace(_paths(len(flat))), gw, cfg, raw_context=raw)
    prompts = [req.prompt for req in gw.requests]
    assert len(prompts) == 1 + len(flat) + final_call
    assert (CONTEXT_DELIMITER in outcome.final_context) == (len(
        outcome.corrective_paths) > 1)
    if final_call:
        assert outcome.final_context in prompts[-1]
    assert outcome.response == plain_answer("q?", outcome.final_context, gw.inner, cfg)


def test_resolve_computes_entropy_once_per_probe(tmp_path, monkeypatch):
    """The parametric baseline and each path are measured; the final answer is not."""
    calls = []

    def counting(tokens):
        calls.append(tokens)
        return mean_token_entropy(tokens)

    monkeypatch.setattr(conflict, "mean_token_entropy", counting)
    gw = _gw(tmp_path, _resolution_entries([False, True, False]))
    outcome = resolve(_trace(_paths(3)), gw, PipelineConfig(tau=1.0))
    assert outcome.fallback_used == "none"
    assert len(calls) == 3 + 1


def test_entropy_report_round_trips_via_dict(tmp_path):
    gw = _gw(tmp_path, _resolution_entries([True, False]))
    outcome = resolve(_trace(_paths(2)), gw, PipelineConfig(tau=1.0))
    report = outcome.report
    assert asdict(report)["per_path"] == [
        {"index": p.index, "h_aug": p.h_aug, "delta_h": p.delta_h,
         "corrective": p.corrective}
        for p in report.per_path
    ]
    for entry in report.per_path:
        assert entry.delta_h == entry.h_aug - report.h_param
        assert entry.corrective == (entry.delta_h > report.tau)


def test_render_leaves_placeholders_inside_filled_slots_alone():
    prompt = render(ANSWER_AUGMENTED, context="see {question} and {x} here",
                    question="Q?")
    assert "References:\nsee {question} and {x} here\n" in prompt
    assert prompt.endswith("Question: Q?\nAnswer:\n")
    assert render(ANSWER_AUGMENTED) == load_template(ANSWER_AUGMENTED)

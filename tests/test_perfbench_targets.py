"""The package names the benchmark relies on exist.

``perfbench/tracer.py`` reports a missing layer function as a null metric
instead of failing, and ``perfbench/loopback_server.py`` reports a request
it cannot build as an HTTP 400 reply, so a rename inside ``kgconflict``
would go unnoticed there. Both files are read as source, without importing
the benchmark, except by the last gate, which runs the tracer itself.
"""

from __future__ import annotations

import ast
import importlib
import json
import math
import sys
from dataclasses import fields
from functools import reduce
from pathlib import Path

import pytest

import fixtures

from kgconflict import config as config_mod, conflict, evaluation, pipeline
from kgconflict.gateway import GenerationRequest, GenerationResult

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
LOOPBACK = PERFBENCH / "loopback_server.py"


def _targets() -> list[tuple[str, str]]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(target[0], target[1]) for target in ast.literal_eval(node.value)]
    raise AssertionError(f"{TRACER} assigns no TARGETS")


def test_benchmark_layer_names_are_package_callables():
    targets = _targets()
    missing = [
        f"kgconflict.{module}.{function}"
        for module, function in targets
        if not callable(
            getattr(importlib.import_module(f"kgconflict.{module}"), function, None)
        )
    ]
    assert targets
    assert missing == []


# The layer functions one full-mode query calls.
_FULL_MODE_LAYERS = {
    "graph.segment", "graph.extract_triples", "graph.build_graph",
    "retrieval.extract_key_elements", "retrieval.top_k_important",
    "retrieval.enumerate_paths", "retrieval.score_path",
    "retrieval.select_super_paths", "retrieval.contextualize",
    "conflict.resolve", "conflict.parametric_baseline", "conflict.mean_token_entropy",
}


def test_wrapped_layer_functions_see_a_full_mode_query(
    monkeypatch, replay_config, replay_gateway
):
    """The tracer replaces each layer function wherever a ``kgconflict``
    module refers to it; a function the program reaches another way (say,
    one captured in a table at import time) would escape it and its metric
    would read null. Wrap them the same way and check each one is called."""
    called = set()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            called.add(name)
            return original(*args, **kwargs)
        return wrapper

    for module_name, function in _targets():
        original = getattr(importlib.import_module(f"kgconflict.{module_name}"), function)
        wrapper = counting(f"{module_name}.{function}", original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "kgconflict":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)
    pipeline.answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT,
                          replay_config, replay_gateway)
    assert _FULL_MODE_LAYERS - called == set()


def _field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def test_loopback_server_uses_gateway_type_fields():
    tree = ast.parse(LOOPBACK.read_text(encoding="utf-8"))
    keywords = {
        keyword.arg
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "request_type"
        for keyword in node.keywords
    }
    (chat_payload,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_chat_payload"
    ]
    read = {
        node.attr
        for node in ast.walk(chat_payload)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "result"
    }
    assert keywords and read
    assert keywords <= _field_names(GenerationRequest)
    assert read <= _field_names(GenerationResult)


def _chains_read_from_out(branch: str) -> dict[tuple[str, ...], bool]:
    """The attribute chains (``out.report.per_path``) that the ``branch`` case
    of ``tracer._result_info`` reads from the layer function's return value,
    each with whether the case calls what the chain reads."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    (info,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_result_info"]
    (case,) = [
        node for node in ast.walk(info)
        if isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
        and any(isinstance(c, ast.Constant) and c.value == branch
                for c in node.test.comparators)
    ]
    nodes = [node for stmt in case.body for node in ast.walk(stmt)]
    inner = {id(node.value) for node in nodes if isinstance(node, ast.Attribute)}
    called = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
    chains = {}
    for node in nodes:
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        chain, is_called = [], id(node) in called
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "out":
            chains[tuple(chain)] = is_called
    return chains


def test_tracer_reads_what_resolve_returns(replay_config, replay_gateway):
    """The tracer turns a missing attribute into an ``info_error`` and a null
    ``conflict.*`` metric, so each chain it reads must resolve here, to a
    value (``corrective_paths`` is a property) unless the tracer calls it."""
    chains = _chains_read_from_out("conflict.resolve")
    trace = pipeline.QueryTrace(mode=replay_config.mode, question=fixtures.REPLAY_QUESTION)
    graph, _ = pipeline.build_phase(trace, fixtures.REPLAY_CONTEXT, replay_config,
                                    replay_gateway)
    pipeline.retrieve_phase(trace, graph, replay_config, replay_gateway)
    out = conflict.resolve(trace, replay_gateway, replay_config, fixtures.REPLAY_CONTEXT)
    assert chains
    for chain, is_called in chains.items():
        assert callable(reduce(getattr, chain, out)) == is_called, chain


BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
WORKLOADS = ("eval_backend_bound", "eval_hub_cpu", "eval_http_loopback")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_traced_layer_metric_is_a_finite_number(tmp_path, workload):
    """A traced run reports a null metric for a layer function it never saw
    and writes a NaN or inf as bare ``NaN``/``Infinity``, neither of which
    the benchmark's last line may hold. Trace a short eval run of each
    workload's seed-1 inputs, the HTTP one answered by its mock script, the
    way ``perfbench/run.py --trace 1`` does, and check every per-layer value.
    The program is called through its modules, where the tracer wraps it."""
    gen, config = fixtures.generate_workload(workload, 1, tmp_path)
    from proxy import ProxyGateway
    from tracer import LayerMetrics, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        cfg = config_mod.parse_config(config)
        records = evaluation.load_dataset(gen.dataset)[:10]
        gateway = pipeline.build_gateway(cfg)
        result = evaluation.run_eval(records, cfg, ProxyGateway(gateway, 0.0, tracer))
        evaluation.write_results_csv(result, tmp_path / "results.csv")
        evaluation.write_summary_json(result, tmp_path / "summary.json")
    finally:
        tracer.uninstall()
    assert result.skipped == []
    computed = LayerMetrics(tracer, len(records)).compute(0.0)
    per_layer = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    got = {spec["name"]: computed.get(spec["name"], (None, "not computed"))
           for spec in per_layer}
    bad = {name: (value, reason) for name, (value, reason) in got.items()
           if not (isinstance(value, float) and math.isfinite(value))}
    assert bad == {}
    json.dumps({name: value for name, (value, _) in got.items()}, allow_nan=False)

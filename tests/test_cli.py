"""CLI subcommands, flags, and exit codes."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures

from kgconflict import (
    ParseError,
    PipelineConfig,
    answer_query,
    build_graph,
    save_graph,
)
from kgconflict import cli
from kgconflict.cli import main
from kgconflict.config import ALL_KEYS


@pytest.fixture
def replay_cli_files(tmp_path, replay_script_path, replay_dataset_path):
    context_path = tmp_path / "context.txt"
    context_path.write_text(fixtures.REPLAY_CONTEXT, encoding="utf-8")
    return {
        "script": str(replay_script_path),
        "context": str(context_path),
        "dataset": str(replay_dataset_path),
        "tmp": tmp_path,
    }


def test_build_graph_subcommand(replay_cli_files, capsys):
    out = replay_cli_files["tmp"] / "graph.json"
    code = main([
        "build-graph",
        "--mock-script", replay_cli_files["script"],
        "--context", replay_cli_files["context"],
        "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["schema_version"] == 1
    assert len(data["entities"]) == 6
    assert "6 triples" in capsys.readouterr().out


def test_retrieve_paths_subcommand(replay_cli_files, capsys):
    graph_out = replay_cli_files["tmp"] / "graph.json"
    paths_out = replay_cli_files["tmp"] / "paths.json"
    main([
        "build-graph",
        "--mock-script", replay_cli_files["script"],
        "--context", replay_cli_files["context"],
        "--out", str(graph_out),
    ])
    code = main([
        "retrieve-paths",
        "--mock-script", replay_cli_files["script"],
        "--graph", str(graph_out),
        "--question", fixtures.REPLAY_QUESTION,
        "--out", str(paths_out),
    ])
    assert code == 0
    payload = json.loads(paths_out.read_text(encoding="utf-8"))
    assert payload["p_init_count"] == 28
    assert len(payload["paths"]) == 10
    node_lists = [tuple(p["nodes"]) for p in payload["paths"]]
    assert fixtures.TARGET_PATH_NODES in node_lists


def test_resolve_subcommand_on_persisted_paths(replay_cli_files, capsys):
    graph_out = replay_cli_files["tmp"] / "graph.json"
    paths_out = replay_cli_files["tmp"] / "paths.json"
    result_out = replay_cli_files["tmp"] / "resolution.json"
    main([
        "build-graph",
        "--mock-script", replay_cli_files["script"],
        "--context", replay_cli_files["context"],
        "--out", str(graph_out),
    ])
    main([
        "retrieve-paths",
        "--mock-script", replay_cli_files["script"],
        "--graph", str(graph_out),
        "--question", fixtures.REPLAY_QUESTION,
        "--out", str(paths_out),
    ])
    capsys.readouterr()
    code = main([
        "resolve",
        "--mock-script", replay_cli_files["script"],
        "--paths", str(paths_out),
        "--out", str(result_out),
    ])
    assert code == 0
    assert fixtures.REPLAY_GOLD in capsys.readouterr().out
    payload = json.loads(result_out.read_text(encoding="utf-8"))
    assert payload["fallback_used"] == "none"
    assert payload["corrective_paths"] == [list(fixtures.TARGET_PATH_NODES)]
    assert payload["report"]["per_path"][8]["corrective"] is True


def test_answer_subcommand_with_trace(replay_cli_files, capsys):
    run_dir = replay_cli_files["tmp"] / "run"
    code = main([
        "answer",
        "--mock-script", replay_cli_files["script"],
        "--question", fixtures.REPLAY_QUESTION,
        "--context", replay_cli_files["context"],
        "--trace",
        "--out", str(run_dir),
    ])
    assert code == 0
    assert fixtures.REPLAY_GOLD in capsys.readouterr().out
    trace_lines = (run_dir / "trace.jsonl").read_text(encoding="utf-8")
    traces = [json.loads(line) for line in trace_lines.splitlines()]
    assert len(traces) == 1
    assert traces[0]["mode"] == "full"
    assert traces[0]["response"].find(fixtures.REPLAY_GOLD) >= 0


def test_answer_trace_requires_out(replay_cli_files, capsys):
    code = main([
        "answer",
        "--mock-script", replay_cli_files["script"],
        "--question", "q?",
        "--context", replay_cli_files["context"],
        "--trace",
    ])
    assert code == 1


def test_eval_subcommand_writes_artifacts(replay_cli_files, capsys):
    out_dir = replay_cli_files["tmp"] / "eval-out"
    code = main([
        "eval",
        "--mock-script", replay_cli_files["script"],
        "--dataset", replay_cli_files["dataset"],
        "--out", str(out_dir),
    ])
    assert code == 0
    assert "accuracy=1.0000" in capsys.readouterr().out
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "timings.json").exists()
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert summary["accuracy"] == 1.0


def test_eval_mode_flag_switches_ablation(replay_cli_files, capsys):
    out_dir = replay_cli_files["tmp"] / "eval-norag"
    code = main([
        "eval",
        "--mock-script", replay_cli_files["script"],
        "--dataset", replay_cli_files["dataset"],
        "--mode", "no_rag",
        "--out", str(out_dir),
    ])
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert summary["mode"] == "no_rag"
    assert summary["accuracy"] == 0.0


def test_config_file_with_cli_override(replay_cli_files, capsys, tmp_path):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        f"mock_script = {replay_cli_files['script']}\nmode = no_rag\n",
        encoding="utf-8",
    )
    out_dir = replay_cli_files["tmp"] / "eval-cfg"
    code = main([
        "eval",
        "--config", str(config_path),
        "--dataset", replay_cli_files["dataset"],
        "--mode", "full",
        "--out", str(out_dir),
    ])
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert summary["mode"] == "full"
    assert summary["accuracy"] == 1.0


@pytest.mark.parametrize("flag, value", [
    pytest.param("--alpha", "-2", id="alpha-negative"),
    pytest.param("--alpha", "inf", id="alpha-inf"),
    pytest.param("--beta", "-inf", id="beta-minus-inf"),
    pytest.param("--beta", "nan", id="beta-nan"),
    pytest.param("--tau", "nan", id="tau-nan"),
    pytest.param("--tau", "inf", id="tau-inf"),
    pytest.param("--temperature", "nan", id="temperature-nan"),
    pytest.param("--temperature", "inf", id="temperature-inf"),
])
def test_exit_code_validation_error(replay_cli_files, capsys, flag, value):
    code = main([
        "answer",
        "--mock-script", replay_cli_files["script"],
        "--question", "q?",
        "--context", replay_cli_files["context"],
        "--tau", "1",
        flag, value,
    ])
    assert code == 1
    assert flag.lstrip("-") in capsys.readouterr().err


def test_exit_code_usage_error_is_one(capsys):
    assert main(["answer"]) == 1  # missing required --question


def test_exit_code_backend_failure(replay_cli_files, tmp_path, capsys):
    empty = fixtures.write_script(tmp_path / "empty.jsonl", [])
    code = main([
        "answer",
        "--mock-script", str(empty),
        "--question", "q?",
        "--context", replay_cli_files["context"],
    ])
    assert code == 2
    assert "backend" in capsys.readouterr().err


def test_exit_code_no_backend_configured(replay_cli_files, capsys):
    code = main([
        "answer",
        "--question", "q?",
        "--context", replay_cli_files["context"],
    ])
    assert code == 1


def test_exit_code_dataset_error(replay_cli_files, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x"}\n', encoding="utf-8")
    code = main([
        "eval",
        "--mock-script", replay_cli_files["script"],
        "--dataset", str(bad),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 3
    assert "dataset" in capsys.readouterr().err


def test_answer_trace_appends_across_runs(replay_cli_files):
    run_dir = replay_cli_files["tmp"] / "appending"
    args = [
        "answer",
        "--mock-script", replay_cli_files["script"],
        "--question", fixtures.REPLAY_QUESTION,
        "--context", replay_cli_files["context"],
        "--trace",
        "--out", str(run_dir),
    ]
    assert main(args) == 0
    assert main(args) == 0
    lines = (run_dir / "trace.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2


def test_answer_is_identical_across_processes(replay_cli_files):
    """Mock embeddings and scripts are process-independent, so two fresh
    interpreter runs print the same answer."""
    import subprocess
    import sys

    cmd = [
        sys.executable, "-m", "kgconflict", "answer",
        "--mock-script", replay_cli_files["script"],
        "--question", fixtures.REPLAY_QUESTION,
        "--context", replay_cli_files["context"],
    ]
    runs = [subprocess.run(cmd, capture_output=True, text=True) for _ in range(2)]
    assert all(r.returncode == 0 for r in runs), runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    assert fixtures.REPLAY_GOLD in runs[0].stdout


def test_eval_trace_writes_jsonl(replay_cli_files, capsys):
    out_dir = replay_cli_files["tmp"] / "eval-trace"
    code = main([
        "eval",
        "--mock-script", replay_cli_files["script"],
        "--dataset", replay_cli_files["dataset"],
        "--trace",
        "--out", str(out_dir),
    ])
    assert code == 0
    lines = (out_dir / "trace.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["mode"] == "full"


def _build_replay_graph(files, graph_out, *extra):
    return main([
        "build-graph",
        "--mock-script", files["script"],
        "--context", files["context"],
        "--out", str(graph_out),
        *extra,
    ])


def test_retrieve_paths_writes_the_pipeline_trace_paths(replay_cli_files):
    graph_out = replay_cli_files["tmp"] / "graph.json"
    paths_out = replay_cli_files["tmp"] / "paths.json"
    assert _build_replay_graph(replay_cli_files, graph_out) == 0
    assert main([
        "retrieve-paths",
        "--mock-script", replay_cli_files["script"],
        "--graph", str(graph_out),
        "--question", fixtures.REPLAY_QUESTION,
        "--out", str(paths_out),
    ]) == 0
    payload = json.loads(paths_out.read_text(encoding="utf-8"))
    cfg = PipelineConfig(mock_script=replay_cli_files["script"])
    _, trace = answer_query(fixtures.REPLAY_QUESTION, fixtures.REPLAY_CONTEXT, cfg)
    traced = json.loads(json.dumps(asdict(trace)))
    assert payload["paths"] == traced["p_super"]
    for key in ("key_elements", "important_entities", "important_relations",
                "p_init_count"):
        assert payload[key] == traced[key]


def test_unreadable_segment_is_skipped_by_pipeline_and_cli(replay_cli_files,
                                                           tmp_path, capsys):
    # Both the extraction reply and its repair retry for the second segment
    # are not JSON, so that segment is skipped and the graph comes from the
    # first one.
    script = fixtures.write_script(tmp_path / "skip.jsonl", [
        fixtures.gen_entry(r"Extract factual knowledge triples[\s\S]*Zzyzx",
                           "not json", fixtures.one_token("not json"), regex=True),
        *fixtures.replay_script_entries(),
    ])
    context = fixtures.REPLAY_CONTEXT + " Zzyzx is a word no extractor can read."
    context_path = tmp_path / "skip.txt"
    context_path.write_text(context, encoding="utf-8")

    cfg = PipelineConfig(mock_script=str(script), max_segment_tokens=60)
    response, trace = answer_query(fixtures.REPLAY_QUESTION, context, cfg)
    assert len(trace.segments) == 2
    assert trace.graph_stats["triples"] == 6
    assert fixtures.REPLAY_GOLD in response

    code = main([
        "build-graph",
        "--mock-script", str(script),
        "--context", str(context_path),
        "--max-segment-tokens", "60",
        "--out", str(tmp_path / "graph.json"),
    ])
    assert code == 0
    assert "6 triples (2 segments, 1 skipped)" in capsys.readouterr().out


def test_build_graph_blank_context_exits_one(replay_cli_files, tmp_path, capsys):
    blank = tmp_path / "blank.txt"
    blank.write_text("  \n\t ", encoding="utf-8")
    code = main([
        "build-graph",
        "--mock-script", replay_cli_files["script"],
        "--context", str(blank),
        "--out", str(tmp_path / "graph.json"),
    ])
    assert code == 1
    assert "empty" in capsys.readouterr().err


class _ProtocolErrorGateway:
    """A backend whose every reply violates the wire protocol."""

    def generate(self, req):
        raise ParseError("backend reply is not an object")

    def embed(self, texts):
        raise ParseError("backend reply is not an object")


def test_build_graph_backend_parse_error_exits_two(replay_cli_files, monkeypatch,
                                                   capsys):
    monkeypatch.setattr(cli, "build_gateway", lambda cfg: _ProtocolErrorGateway())
    code = _build_replay_graph(replay_cli_files, replay_cli_files["tmp"] / "g.json")
    assert code == 2
    assert "backend error" in capsys.readouterr().err


def test_retrieve_paths_on_empty_graph_makes_no_model_call(tmp_path):
    graph_out = tmp_path / "empty_graph.json"
    save_graph(build_graph([]), graph_out)
    # An empty script misses on any call, so a key-elements call would fail.
    empty = fixtures.write_script(tmp_path / "empty.jsonl", [])
    paths_out = tmp_path / "paths.json"
    code = main([
        "retrieve-paths",
        "--mock-script", str(empty),
        "--graph", str(graph_out),
        "--question", "q?",
        "--out", str(paths_out),
    ])
    assert code == 0
    payload = json.loads(paths_out.read_text(encoding="utf-8"))
    assert payload["key_elements"] is None
    assert payload["paths"] == []
    assert payload["p_init_count"] == 0


@pytest.mark.parametrize("content", [
    pytest.param("[]", id="array"),
    pytest.param("{not json", id="bad-json"),
    pytest.param('{"schema_version": 1}', id="missing-keys"),
])
@pytest.mark.parametrize("subcommand, flag", [
    pytest.param("retrieve-paths", "--graph", id="graph"),
    pytest.param("resolve", "--paths", id="paths"),
])
def test_malformed_graph_or_paths_file_exits_one(replay_cli_files, capsys,
                                                 content, subcommand, flag):
    bad = replay_cli_files["tmp"] / "bad.json"
    bad.write_text(content, encoding="utf-8")
    code = main([
        subcommand,
        "--mock-script", replay_cli_files["script"],
        flag, str(bad),
        "--question", "q?",
        "--out", str(replay_cli_files["tmp"] / "out.json"),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("document, where, value", [
    pytest.param("graph", ("entities", 0, "id"), 3, id="entity-id"),
    pytest.param("graph", ("entities", 0, "name"), 7, id="entity-name"),
    pytest.param("graph", ("entities", 0, "description"), [], id="entity-description"),
    pytest.param("graph", ("entities", 0, "surface_forms", 0), None,
                 id="entity-surface-form"),
    pytest.param("graph", ("entities", 0, "source_segments", 0), "0",
                 id="entity-source-segment"),
    pytest.param("graph", ("relations", 0, "name"), 7, id="relation-name"),
    pytest.param("graph", ("relations", 0, "source_segments", 0), 0.5,
                 id="relation-source-segment"),
    pytest.param("graph", ("triples", 0, "relation"), 1, id="triple-relation"),
    pytest.param("graph", ("triples", 0, "source_segment"), "0",
                 id="triple-source-segment"),
    pytest.param("graph", ("triples", 0, "source_segment"), True,
                 id="triple-source-segment-bool"),
    pytest.param("graph", ("triples", 0, "evidence"), 1.5, id="triple-evidence"),
    pytest.param("paths", ("question",), 42, id="question"),
    pytest.param("paths", ("paths", 0, "nodes", 0), 1, id="path-node"),
    pytest.param("paths", ("paths", 0, "rendered_context"), 7, id="rendered-context"),
    pytest.param("paths", ("paths", 0, "score"), "high", id="score"),
    pytest.param("paths", ("paths", 0, "score"), float("nan"), id="score-nan"),
    pytest.param("paths", ("paths", 0, "score"), float("inf"), id="score-infinity"),
    pytest.param("paths", ("paths", 0, "edges", 0, "relation"), 1, id="edge-relation"),
    pytest.param("paths", ("paths", 0, "edges", 0, "triple_index"), "0",
                 id="edge-triple-index"),
    pytest.param("paths", ("paths", 0, "edges", 0, "direction"), 1,
                 id="edge-direction"),
])
def test_wrongly_typed_graph_or_paths_field_exits_one(replay_cli_files, capsys,
                                                       document, where, value):
    tmp = replay_cli_files["tmp"]
    files = {"graph": tmp / "graph.json", "paths": tmp / "paths.json"}
    main(["build-graph", "--mock-script", replay_cli_files["script"],
          "--context", replay_cli_files["context"], "--out", str(files["graph"])])
    main(["retrieve-paths", "--mock-script", replay_cli_files["script"],
          "--graph", str(files["graph"]), "--question", fixtures.REPLAY_QUESTION,
          "--out", str(files["paths"])])
    data = json.loads(files[document].read_text(encoding="utf-8"))
    parent = data
    for step in where[:-1]:
        parent = parent[step]
    parent[where[-1]] = value
    bad = tmp / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    if document == "graph":
        argv = ["retrieve-paths", "--graph", str(bad), "--question", "q?"]
    else:
        argv = ["resolve", "--paths", str(bad)]
    code = main([*argv, "--mock-script", replay_cli_files["script"],
                 "--out", str(tmp / "out.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    field = where[-2] if isinstance(where[-1], int) else where[-1]
    assert f".{field}" in err


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """The replay fixture as files, with the graph and paths files built from it."""
    tmp = tmp_path_factory.mktemp("inputs")
    files = {
        "script": fixtures.write_script(tmp / "script.jsonl",
                                        fixtures.replay_script_entries()),
        "context": tmp / "context.txt",
        "dataset": tmp / "dataset.jsonl",
        "graph": tmp / "graph.json",
        "paths": tmp / "paths.json",
        "run": tmp / "run",
        "out": tmp / "out.json",
    }
    files["context"].write_text(fixtures.REPLAY_CONTEXT, encoding="utf-8")
    files["dataset"].write_text(json.dumps(fixtures.replay_dataset_record()) + "\n",
                                encoding="utf-8")
    files = {name: str(path) for name, path in files.items()}
    assert main(["build-graph", "--mock-script", files["script"],
                 "--context", files["context"], "--out", files["graph"]]) == 0
    assert main(["retrieve-paths", "--mock-script", files["script"],
                 "--graph", files["graph"], "--question", fixtures.REPLAY_QUESTION,
                 "--out", files["paths"]]) == 0
    return files


def _argv_reading(files: dict, kind: str, path: str) -> list[str]:
    """A CLI call that reads ``path`` as its ``kind`` input; the other inputs are valid."""
    files = {**files, kind: path}
    if kind == "dataset":
        return ["eval", "--mock-script", files["script"], "--dataset", path,
                "--out", files["run"]]
    if kind == "context":
        return ["answer", "--mock-script", files["script"],
                "--question", fixtures.REPLAY_QUESTION, "--context", path]
    if kind == "graph":
        return ["retrieve-paths", "--mock-script", files["script"], "--graph", path,
                "--question", fixtures.REPLAY_QUESTION, "--out", files["out"]]
    argv = ["resolve", "--mock-script", files["script"], "--paths", files["paths"]]
    return argv + ["--config", path] if kind == "config" else argv


def _run(argv: list[str]) -> tuple[int, str]:
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, err.getvalue()


def _assert_one_error_line(err: str) -> None:
    assert err.startswith(("error: ", "backend error: ")), err
    assert err.count("\n") == 1, err
    assert "Traceback" not in err


# The exit code a bad file of each kind gives.
_INPUT_CODES = {"config": 1, "script": 2, "dataset": 3, "context": 1, "graph": 1,
                "paths": 1}


@pytest.mark.parametrize("kind", list(_INPUT_CODES))
def test_non_utf8_input_file_exits_with_its_code(valid_inputs, tmp_path, kind):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe" + "k = 1\n".encode("utf-16-le"))
    code, err = _run(_argv_reading(valid_inputs, kind, str(bad)))
    assert code == _INPUT_CODES[kind]
    _assert_one_error_line(err)
    assert "utf-8" in err
    if kind == "script":
        assert "backend setup failed" in err


@pytest.mark.parametrize("content", [
    pytest.param("[" * 100_000, id="deep-nesting"),
    pytest.param("1" * 5_000, id="long-integer"),
])
@pytest.mark.parametrize("kind", ["script", "dataset", "graph", "paths"])
def test_json_the_parser_refuses_exits_with_its_code(valid_inputs, tmp_path, kind,
                                                     content):
    bad = tmp_path / "bad.json"
    bad.write_text(content + "\n", encoding="utf-8")
    code, err = _run(_argv_reading(valid_inputs, kind, str(bad)))
    assert code == _INPUT_CODES[kind]
    _assert_one_error_line(err)


@pytest.mark.parametrize("kind", ["config", "dataset", "script", "graph", "paths"])
@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=512))
def test_arbitrary_input_file_exits_with_its_code(valid_inputs, kind, data):
    """Fuzz gate: any bytes as one input file give 0 (a valid file) or the
    input's error code, with one error line and no traceback."""
    bad = Path(valid_inputs["run"]).with_name(f"fuzzed-{kind}")
    bad.write_bytes(data)
    code, err = _run(_argv_reading(valid_inputs, kind, str(bad)))
    if code == 0:
        assert "Traceback" not in err
    else:
        assert code == _INPUT_CODES[kind]
        _assert_one_error_line(err)


@pytest.mark.parametrize("subcommand", ["build-graph", "retrieve-paths", "resolve",
                                        "answer", "eval"])
def test_output_that_cannot_be_written_exits_one(valid_inputs, tmp_path, subcommand):
    files = valid_inputs
    argv = {
        "build-graph": ["--context", files["context"]],
        "retrieve-paths": ["--graph", files["graph"],
                           "--question", fixtures.REPLAY_QUESTION],
        "resolve": ["--paths", files["paths"]],
        "answer": ["--question", fixtures.REPLAY_QUESTION,
                   "--context", files["context"], "--trace"],
        "eval": ["--dataset", files["dataset"]],
    }[subcommand]
    # A JSON output named by a directory; a run directory named by a file.
    out = tmp_path / "taken"
    if subcommand in ("answer", "eval"):
        out.write_text("", encoding="utf-8")
    else:
        out.mkdir()
    code, err = _run([subcommand, "--mock-script", files["script"], *argv,
                      "--out", str(out)])
    assert code == 1
    _assert_one_error_line(err)
    assert "cannot write output" in err


@pytest.mark.parametrize("field", ["head", "tail", "relation"])
def test_graph_triple_naming_no_entity_or_relation_exits_one(valid_inputs, tmp_path,
                                                             field):
    data = json.loads(Path(valid_inputs["graph"]).read_text(encoding="utf-8"))
    data["triples"][0][field] = "no such id"
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    code, err = _run(_argv_reading(valid_inputs, "graph", str(bad)))
    assert code == 1
    _assert_one_error_line(err)
    assert "no such id" in err


@pytest.mark.parametrize("rows", ["entities", "relations"])
def test_graph_duplicate_row_id_exits_one(valid_inputs, tmp_path, rows):
    data = json.loads(Path(valid_inputs["graph"]).read_text(encoding="utf-8"))
    data[rows].append({**data[rows][0], "name": "IMPOSTOR"})
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    code, err = _run(_argv_reading(valid_inputs, "graph", str(bad)))
    assert code == 1
    _assert_one_error_line(err)
    assert f"graph.{rows}: duplicate id {data[rows][0]['id']!r}" in err


def test_config_flags_match_config_keys():
    """Every config key has a flag on every subcommand, and nothing more."""
    parser = cli.make_parser()
    (subparsers,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    common = set.intersection(*(
        {action.dest for action in sub._actions}
        for sub in subparsers.choices.values()
    ))
    assert common - {"help", "config", "out"} == ALL_KEYS


_GOLDEN = Path(__file__).parent / "golden"


def test_artifacts_match_golden_copies(replay_cli_files):
    """The replay fixture's graph, paths and resolve JSON equal the checked-in
    bytes; the first trace record matches every key of its golden copy, which
    leaves out ``timings`` so that new trace keys need no golden edit."""
    files, tmp = replay_cli_files, replay_cli_files["tmp"]
    mock = ["--mock-script", files["script"]]
    assert main(["build-graph", *mock, "--context", files["context"],
                 "--out", str(tmp / "graph.json")]) == 0
    assert main(["retrieve-paths", *mock, "--graph", str(tmp / "graph.json"),
                 "--question", fixtures.REPLAY_QUESTION,
                 "--out", str(tmp / "paths.json")]) == 0
    assert main(["resolve", *mock, "--paths", str(tmp / "paths.json"),
                 "--out", str(tmp / "resolve.json")]) == 0
    assert main(["eval", *mock, "--dataset", files["dataset"], "--trace",
                 "--out", str(tmp / "run")]) == 0
    for name in ("graph.json", "paths.json", "resolve.json"):
        assert (tmp / name).read_bytes() == (_GOLDEN / name).read_bytes(), name
    trace_text = (tmp / "run" / "trace.jsonl").read_text(encoding="utf-8")
    record = json.loads(trace_text.splitlines()[0])
    golden = json.loads((_GOLDEN / "trace_record.json").read_text(encoding="utf-8"))
    assert "timings" not in golden
    for key, value in golden.items():
        # Compared as JSON text, so 1 and 1.0 differ as they do in the file.
        assert json.dumps(record[key], sort_keys=True) == json.dumps(
            value, sort_keys=True), key

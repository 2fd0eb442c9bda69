"""Command-line interface: one subcommand per pipeline stage plus eval.

Exit codes: 0 success, 1 validation error or an output that cannot be
written, 2 backend failure, 3 dataset error. The model API key is read
from the MODEL_API_KEY environment variable.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

from .config import ALL_KEYS, KEY_TYPES, MODES, PipelineConfig, parse_config
from .conflict import FALLBACKS
from .conflict import resolve as resolve_paths
from .errors import (
    BackendUnavailable,
    DuplicateId,
    LogprobsUnsupported,
    ParseError,
    PipelineError,
    ScriptMiss,
)
from .evaluation import (
    load_dataset,
    run_eval,
    write_results_csv,
    write_summary_json,
    write_timings_json,
)
from .graph import load_graph, save_graph
from .jsonio import write_json
from .pipeline import (
    QueryTrace,
    answer_query,
    build_gateway,
    build_phase,
    retrieve_phase,
)
from .retrieval import PATHS_SCHEMA_VERSION, load_paths

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BACKEND = 2
EXIT_DATASET = 3


class _CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; code 2 is reserved for backend failures."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _CliError(EXIT_VALIDATION, f"usage error: {message}")


_CHOICES = {"mode": MODES, "fallback": FALLBACKS}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per config key: ``--max-tokens`` for max_tokens; k_similar is ``--k``."""
    parser.add_argument("--config", help="flat key = value config file")
    for key, kind in KEY_TYPES.items():
        flag = "--k" if key == "k_similar" else "--" + key.replace("_", "-")
        if kind is bool:
            parser.add_argument(flag, dest=key, action="store_const", const=True,
                                default=None)
        else:
            parser.add_argument(flag, dest=key, type=kind, choices=_CHOICES.get(key))
    parser.add_argument("--out", help="output file or directory")


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    overrides = {key: getattr(args, key, None) for key in ALL_KEYS}
    return parse_config(args.config, overrides)


def _gateway_or_exit(cfg: PipelineConfig):
    try:
        return build_gateway(cfg)
    except (ParseError, OSError) as exc:
        raise _CliError(EXIT_BACKEND, f"backend setup failed: {exc}")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(EXIT_VALIDATION, f"cannot read {path}: {exc}")


def _append_trace(out_dir: Path, trace_dict: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "trace.jsonl").open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(trace_dict, sort_keys=True) + "\n")


def _cmd_build_graph(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if not args.out:
        raise _CliError(EXIT_VALIDATION, "build-graph requires --out GRAPH_JSON")
    content = _read_text(args.context)
    if not content.strip():
        raise _CliError(EXIT_VALIDATION, f"{args.context}: context is empty")
    gateway = _gateway_or_exit(cfg)
    trace = QueryTrace(mode=cfg.mode, question="")
    graph, skipped = build_phase(content, cfg, gateway, trace)
    save_graph(graph, args.out)
    stats = graph.stats()
    print(
        f"graph: {stats['entities']} entities, {stats['relations']} relations, "
        f"{stats['triples']} triples ({len(trace.segments)} segments, "
        f"{skipped} skipped) -> {args.out}"
    )
    return EXIT_OK


def _cmd_retrieve_paths(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if not args.out:
        raise _CliError(EXIT_VALIDATION, "retrieve-paths requires --out PATHS_JSON")
    graph = load_graph(args.graph)
    gateway = _gateway_or_exit(cfg)
    trace = QueryTrace(mode=cfg.mode, question=args.question)
    p_super = retrieve_phase(args.question, graph, cfg, gateway, trace)
    traced = asdict(trace)
    payload = {
        key: traced[key]
        for key in ("question", "key_elements", "important_entities",
                    "important_relations", "p_init_count")
    }
    payload.update(schema_version=PATHS_SCHEMA_VERSION, paths=traced["p_super"])
    write_json(args.out, payload)
    print(f"{len(p_super)} paths (of {trace.p_init_count} candidates) -> {args.out}")
    return EXIT_OK


def _cmd_resolve(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    file_question, p_super = load_paths(args.paths)
    question = args.question or file_question
    if not question:
        raise _CliError(EXIT_VALIDATION, "resolve needs --question (not in paths file)")
    raw_context = _read_text(args.context) if args.context else None
    gateway = _gateway_or_exit(cfg)
    outcome = resolve_paths(question, p_super, gateway, cfg.resolution(),
                            raw_context=raw_context, parallelism=cfg.parallelism)
    payload = {
        "response": outcome.response,
        "fallback_used": outcome.fallback_used,
        "corrective_paths": [list(p.nodes) for p in outcome.corrective_paths],
        "report": asdict(outcome.report),
    }
    if args.out:
        write_json(args.out, payload)
    print(outcome.response)
    return EXIT_OK


def _cmd_answer(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if cfg.trace and not args.out:
        raise _CliError(EXIT_VALIDATION, "--trace requires --out RUN_DIR")
    context = _read_text(args.context) if args.context else ""
    gateway = _gateway_or_exit(cfg)
    response, trace = answer_query(args.question, context, cfg, gateway)
    if cfg.trace and args.out:
        _append_trace(Path(args.out), asdict(trace))
    print(response)
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if not args.out:
        raise _CliError(EXIT_VALIDATION, "eval requires --out RUN_DIR")
    try:
        records = load_dataset(args.dataset)
    except (ParseError, DuplicateId, OSError) as exc:
        raise _CliError(EXIT_DATASET, f"dataset error: {exc}")
    gateway = _gateway_or_exit(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    trace_sink = (lambda trace: _append_trace(out_dir, asdict(trace))) if cfg.trace else None
    result = run_eval(records, cfg, gateway, trace_sink=trace_sink)
    write_results_csv(result, out_dir / "results.csv")
    write_summary_json(result, out_dir / "summary.json")
    write_timings_json(result, out_dir / "timings.json")
    print(
        f"mode={result.mode} records={len(result.rows)} "
        f"skipped={len(result.skipped)} accuracy={result.accuracy:.4f}"
    )
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kgconflict", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graph", parents=[], help="segment + extract + build")
    _add_common_flags(p)
    p.add_argument("--context", required=True, help="text file with retrieved content")
    p.set_defaults(func=_cmd_build_graph)

    p = sub.add_parser("retrieve-paths", help="rank and render reasoning paths")
    _add_common_flags(p)
    p.add_argument("--graph", required=True, help="graph JSON from build-graph")
    p.add_argument("--question", required=True)
    p.set_defaults(func=_cmd_retrieve_paths)

    p = sub.add_parser("resolve", help="entropy-filter paths and answer")
    _add_common_flags(p)
    p.add_argument("--paths", required=True, help="paths JSON from retrieve-paths")
    p.add_argument("--question")
    p.add_argument("--context", help="raw context file for fallback")
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("answer", help="full pipeline for one question")
    _add_common_flags(p)
    p.add_argument("--question", required=True)
    p.add_argument("--context", help="text file with retrieved content")
    p.set_defaults(func=_cmd_answer)

    p = sub.add_parser("eval", help="run a dataset through the pipeline")
    _add_common_flags(p)
    p.add_argument("--dataset", required=True, help="JSONL eval records")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    # Dataset parse errors are wrapped into _CliError(3) at the call site, so
    # any ParseError reaching this handler is a backend protocol violation.
    except (BackendUnavailable, LogprobsUnsupported, ScriptMiss, ParseError) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    # Every input maps its own OSError at the call site, so one reaching this
    # handler comes from writing an output (--out a directory, a full disk).
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

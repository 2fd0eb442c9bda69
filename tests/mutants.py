"""Mutants that the gates must kill, and the run that checks they still do.

Each row breaks the program in one known way: it names the file, the exact
text it replaces (which must occur exactly once there), the text put in its
place, and the tests that must fail on it. A refactor that moves the text
updates its row, so no gate turns vacuous unnoticed; rows are added, never
removed or weakened to make a run pass.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these

The run first checks that an unmutated copy passes every named test. It
then copies the repository to a temporary directory once per mutant,
applies the mutant there, and runs its tests with ``pytest -x``. A mutant
is killed only when pytest exits 1 (tests ran and one failed); a collection
or usage error does not count. Each mutant's outcome is printed, and the
run exits 1 when any mutant survived. Only the standard library is used.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant(
        "gather-raises-highest-index-error", "src/kgconflict/gateway.py",
        "raise errors[min(errors)]", "raise errors[max(errors)]",
        ("tests/test_gateway.py::test_gather_raises_the_lowest_index_error",),
    ),
    Mutant(
        "gather-starts-p-helpers", "src/kgconflict/gateway.py",
        "for _ in range(min(parallelism, len(calls)) - 1)]",
        "for _ in range(min(parallelism, len(calls)))]",
        ("tests/test_gateway.py::"
         "test_gather_results_by_index_with_the_caller_and_at_most_p_threads",),
    ),
    Mutant(
        "filter-corrective-not-strict", "src/kgconflict/conflict.py",
        "if delta > tau]", "if delta >= tau]",
        ("tests/test_conflict.py::test_filter_corrective_boundary_is_strict",),
    ),
    Mutant(
        "baseline-asked-before-the-embed", "src/kgconflict/pipeline.py",
        "        calls.append(partial(parametric_baseline, trace.question, gateway, cfg))\n"
        "    important, *baseline = gather(calls, cfg.parallelism)\n",
        "        calls.insert(0, partial(parametric_baseline, trace.question, gateway, cfg))\n"
        "    *baseline, important = gather(calls, cfg.parallelism)\n",
        ("tests/test_pipeline.py::test_serial_full_query_asks_in_stage_order",),
    ),
    Mutant(
        "http-positive-logprob-accepted", "src/kgconflict/http_gateway.py",
        "        if chosen_lp > noise:\n"
        '            raise ParseError(f"logprobs content entry logprob {chosen_lp!r}'
        ' is above 0")\n',
        "",
        ("tests/test_gateway.py::"
         "test_http_malformed_reply_is_parse_error[positive-chosen-logprob]",),
    ),
    Mutant(
        "context-tokens-in-characters", "src/kgconflict/evaluation.py",
        "context_tokens=len(trace.final_context.split()),",
        "context_tokens=len(trace.final_context),",
        ("tests/test_evaluation.py::test_run_eval_standard_rag",),
    ),
    Mutant(
        "mass-check-without-tolerance", "src/kgconflict/gateway.py",
        "if mass > 1.0 + PROB_MASS_TOLERANCE:", "if mass > 1.0:",
        ("tests/test_conflict.py::test_entropy_matches_oracle_on_random_distributions",),
    ),
    Mutant(
        "bucket-counts-a-repeated-relation-twice", "src/kgconflict/retrieval.py",
        "relations1 + (relation2 != relation1 and relation2 in relation_ids)",
        "relations1 + (relation2 in relation_ids)",
        ("tests/test_retrieval.py::"
         "test_contending_paths_select_what_scoring_every_path_selects",),
    ),
    Mutant(
        "contenders-cut-below-the-cut", "src/kgconflict/retrieval.py",
        "if at <= cut}", "if at < cut}",
        ("tests/test_retrieval.py::"
         "test_contending_paths_select_what_scoring_every_path_selects",),
    ),
]


def apply(root: Path, mutant: Mutant) -> None:
    """Replace the mutant's old text in its file under ``root``."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.name}: old text occurs {found} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(tests: list[str], mutant: Mutant | None = None) -> int:
    """pytest's exit status on ``tests`` in a copy of the repository, with
    ``mutant`` applied when one is given."""
    with tempfile.TemporaryDirectory(prefix="kgconflict-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".out"))
        if mutant is not None:
            apply(copy, mutant)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(copy / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    # A test that fails unmutated would "kill" every mutant.
    control = run(list(dict.fromkeys(t for m in chosen for t in m.tests)))
    if control != 0:
        print(f"the unmutated copy fails the named tests (pytest exit {control})")
        return 1
    survivors = []
    for mutant in chosen:
        t0 = time.perf_counter()
        status = run(list(mutant.tests), mutant)
        outcome = "killed" if status == 1 else f"SURVIVED (pytest exit {status})"
        if status != 1:
            survivors.append(mutant.name)
        print(f"{mutant.name}: {outcome} in {time.perf_counter() - t0:.1f} s", flush=True)
    print(f"{len(chosen) - len(survivors)}/{len(chosen)} killed in "
          f"{time.perf_counter() - start:.1f} s"
          + (f"; survivors: {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

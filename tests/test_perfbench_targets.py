"""The layer functions the benchmark tracer wraps exist in the package.

``perfbench/tracer.py`` reports a missing layer function as a null metric
instead of failing, so a rename inside ``kgconflict`` would go unnoticed
there. Its ``TARGETS`` list is read as source, without importing the
benchmark.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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

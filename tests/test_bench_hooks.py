"""The benchmark's tracer wraps meerkat functions by name.

`perfbench/tracer.py` looks each name up with a bare `getattr`, so deleting
or renaming one of them would crash a traced benchmark run.  This test
reads the tracer's table without importing or changing the tracer, and
fails first.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def layer_functions() -> dict:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py has no LAYER_FUNCTIONS table")


def test_every_traced_function_exists():
    table = layer_functions()
    assert table
    missing = [
        f"{module_name}.{fn}"
        for module_name, functions in table.values()
        for fn in functions
        if not callable(getattr(importlib.import_module(module_name), fn, None))
    ]
    assert missing == []


def test_the_server_keeps_its_traced_quiescence_step():
    from meerkat.netserver import MeerkatServer

    assert callable(getattr(MeerkatServer, "_step_to_quiescence", None))

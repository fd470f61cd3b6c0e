"""The benchmark's tracer wraps meerkat functions by name, and its
workloads drive meerkat's library API.

`perfbench/tracer.py` looks each name up with a bare `getattr`, and the
workload modules reach meerkat through `import meerkat.X as alias`, so
deleting or renaming one of these names would crash a benchmark run.
These tests read the benchmark's sources without importing or changing
them, and fail first.  The tracer's hooks also read the arguments and
results of the functions they wrap, so a short traced pass of every
workload runs too.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
TRACER = PERFBENCH / "tracer.py"
DRIVERS = ("inproc.py", "launch_server.py", "run.py", "live.py")


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


def api_references(path: Path) -> set[tuple[str, str]]:
    """`(module, attribute)` for every `alias.attribute` in `path` whose
    alias an `import meerkat.X as alias` line binds."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {
        a.asname: a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for a in node.names
        if a.asname and a.name.startswith("meerkat.")
    }
    return {
        (aliases[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    }


def test_every_library_name_the_benchmark_drives_exists():
    refs = {ref for name in DRIVERS for ref in api_references(PERFBENCH / name)}
    assert ("meerkat.runtime", "submit_do") in refs
    assert ("meerkat.netserver", "main") in refs
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr in sorted(refs)
        if not hasattr(importlib.import_module(module_name), attr)
    ]
    assert missing == []


def outcome_field_reads(path: Path) -> list[tuple[str, str]]:
    """`(class, attribute)` for every `o.attribute` read inside the body of
    an `if isinstance(o, alias.Class)` branch in `path`, where an `import
    meerkat.runtime as alias` line binds the alias."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for a in node.names
        if a.name == "meerkat.runtime"
    }
    reads = []
    for node in ast.walk(tree):
        test = node.test if isinstance(node, ast.If) else None
        if not (
            isinstance(test, ast.Call)
            and isinstance(test.func, ast.Name)
            and test.func.id == "isinstance"
            and len(test.args) == 2
            and isinstance(test.args[0], ast.Name)
            and isinstance(test.args[1], ast.Attribute)
            and isinstance(test.args[1].value, ast.Name)
            and test.args[1].value.id in aliases
        ):
            continue
        subject, cls = test.args[0].id, test.args[1].attr
        reads += [
            (cls, sub.attr)
            for stmt in node.body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id == subject
        ]
    return reads


def test_every_outcome_field_the_benchmark_reads_exists():
    # a traced pass reads a field only when that outcome kind occurs, so
    # check every read statically against the outcome's dataclass fields
    runtime = importlib.import_module("meerkat.runtime")
    reads = outcome_field_reads(PERFBENCH / "inproc.py")
    assert {"who", "notified", "final", "error"} <= {attr for _, attr in reads}
    missing = [
        f"{cls}.{attr}"
        for cls, attr in reads
        if attr not in {f.name for f in dataclasses.fields(getattr(runtime, cls))}
    ]
    assert missing == []


WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_short_traced_pass_of_every_workload_checks_out(workload):
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    if workload == "live_mix":
        # the tracer reaches the server's engine only through
        # `_step_to_quiescence` and the module-level `handle_message` and
        # `outcome_messages`; a refactor that bypasses one zeroes a layer
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["netserver.engine_batch.mean"] >= 1
        assert metrics["netserver.do.engine_ms_p50"] > 0
        assert metrics["runtime.apply_step.calls"] > 0

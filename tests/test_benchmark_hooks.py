"""The benchmark reads earc by name: the tracer wraps functions, and the
workloads read module constants.  A rename in earc would silently drop a span
from the per-layer metrics or break the traced run."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def test_every_traced_function_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    missing = [f"{mod}.{name}" for mod, name in tracer.TRACED
               if not callable(getattr(importlib.import_module("earc." + mod), name, None))]
    # groups.reduced_action was deleted: the basis constraint reads the rows of
    # groups.action_rows.  The tracer skips a missing name, so its span reads 0
    # until the benchmark drops it; any other missing name still fails
    assert not hasattr(importlib.import_module("earc.groups"), "reduced_action")
    assert missing == ["groups.reduced_action"]


def _earc_reads(path):
    """(dotted module, attribute) for every ``alias.attr`` read in ``path``,
    where ``alias`` was bound by an ``import earc...`` or ``from earc import``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "earc":
                    # ``import earc.x`` binds ``earc``; ``import earc.x as y`` binds y
                    bound = alias.asname or "earc"
                    modules[bound] = alias.name if alias.asname else "earc"
        elif isinstance(node, ast.ImportFrom) and node.module == "earc":
            for alias in node.names:
                modules[alias.asname or alias.name] = "earc." + alias.name
    return [(modules[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules]


def test_every_earc_attribute_the_benchmark_reads_exists():
    reads = _earc_reads(PERFBENCH / "bench.py") + _earc_reads(PERFBENCH / "run.py")
    assert ("earc.solver", "NORMAL_EQ_THRESHOLD") in reads
    assert ("earc.tensorops", "ENTRY_CAP") in reads
    assert ("earc._kernels", "NUMBA_ENABLED") in reads
    missing = sorted({f"{mod}.{attr}" for mod, attr in reads
                      if not hasattr(importlib.import_module(mod), attr)})
    assert missing == []

"""The benchmark's tracer wraps earc functions by name; a rename in earc
would silently drop their spans from the per-layer metrics."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    missing = [f"{mod}.{name}" for mod, name in tracer.TRACED
               if not callable(getattr(importlib.import_module("earc." + mod), name, None))]
    assert missing == []

"""Every module-level function and class in ``src/earc`` is used by the
library or by the benchmark.  Code that only tests call belongs in
``tests/oracles.py``, so that ``src/`` holds only what the library runs."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "earc"


def _top_level_names(path):
    """Per top-level statement of ``path``: the names it reads, as a bare
    name or as an attribute.  Strings (docstrings, ``__all__``) and import
    lists are not reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for stmt in tree.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        out.append((stmt, names))
    return out


def library_definitions():
    """(``module.name`` of every module-level def or class in ``src/earc``,
    those among them that no other statement of ``src/`` or ``perfbench/``
    reads)."""
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    statements = [(path, stmt, names) for path in files
                  for stmt, names in _top_level_names(path)]
    defined, unused = [], []
    for path, stmt, _ in statements:
        if path.parent != SRC or not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        defined.append(f"{path.stem}.{stmt.name}")
        if not any(stmt.name in names for _, other, names in statements if other is not stmt):
            unused.append(defined[-1])
    return defined, unused


def test_every_library_definition_is_used_outside_tests():
    defined, unused = library_definitions()
    assert "embedding.compression_plan" in defined  # the guard reads the library
    assert unused == []

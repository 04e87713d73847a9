"""Every module-level function, class and UPPER_CASE constant in
``src/earc`` is used by the library or by the benchmark.  Code that only
tests call belongs in ``tests/oracles.py``, so that ``src/`` holds only what
the library runs, and a constant nothing reads any more fails the suite."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "earc"
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


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


def _defined_names(stmt):
    """The def or class a top-level statement defines, or the UPPER_CASE
    names it assigns."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name) and CONSTANT.fullmatch(node.id)]


def library_definitions():
    """(``module.name`` of every module-level def, class or UPPER_CASE
    constant in ``src/earc``, those among them that no other statement of
    ``src/`` or ``perfbench/`` reads)."""
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    statements = [(path, stmt, names) for path in files
                  for stmt, names in _top_level_names(path)]
    defined, unused = [], []
    for path, stmt, _ in statements:
        if path.parent != SRC:
            continue
        for name in _defined_names(stmt):
            defined.append(f"{path.stem}.{name}")
            if not any(name in names for _, other, names in statements if other is not stmt):
                unused.append(defined[-1])
    return defined, unused


def test_every_library_definition_is_used_outside_tests():
    defined, unused = library_definitions()
    assert "embedding.compression_plan" in defined  # the guard reads the library
    assert "solver.NORMAL_EQ_THRESHOLD" in defined  # and its constants
    assert unused == []


def test_series_csv_has_one_reader():
    """``src/`` calls ``np.loadtxt`` once, in the reader behind
    ``cli.read_series``: a faster way to reach some rows of a series must
    use that reader, not grow a second one beside it."""
    calls = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "loadtxt"]
    assert len(calls) == 1 and calls[0].startswith("cli.py:"), calls

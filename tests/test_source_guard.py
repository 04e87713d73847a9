"""Every module-level function, class and UPPER_CASE constant in
``src/earc``, and every field of its dataclasses, is used by the library or
by the benchmark.  Code that only tests call belongs in ``tests/oracles.py``,
so that ``src/`` holds only what the library runs, and a constant or a field
nothing reads any more fails the suite."""

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


def _is_dataclass(decorator):
    """Whether a class decorator is ``dataclass`` or ``dataclass(...)``."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return isinstance(decorator, ast.Name) and decorator.id == "dataclass"


def dataclass_fields():
    """(``module.Class.name`` of every field and property of a ``@dataclass``
    in ``src/earc``, those among them that no statement of ``src/`` or
    ``perfbench/`` reads as an attribute).

    A read is matched by name alone, whatever object it is read from, so a
    field that shares its name with another attribute passes unread: a field
    ``parent`` would pass through ``Path.parent``.  Passing a field to the
    constructor by keyword is not a read."""
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields, unread = [], []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list))):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    name = stmt.target.id
                elif isinstance(stmt, ast.FunctionDef) and any(
                        isinstance(d, ast.Name) and d.id == "property"
                        for d in stmt.decorator_list):
                    name = stmt.name
                else:
                    continue
                fields.append(f"{path.stem}.{cls.name}.{name}")
                if name not in read:
                    unread.append(fields[-1])
    return fields, unread


def test_every_dataclass_field_is_read_outside_tests():
    fields, unread = dataclass_fields()
    assert "embedding.CompressionPlan.blocks" in fields  # the guard reads the fields
    assert "model.Forecast.steps" in fields  # and the properties
    # model.EarcModel.metadata is written by train and load and read by nothing;
    # perfbench builds the model with metadata={}, so the field goes with the next
    # benchmark change (the FOUND line on it in CHANGES.md); any other unread
    # field still fails
    assert unread == ["model.EarcModel.metadata"]


def _calls(matches):
    """``file:line`` of every call in ``src/`` whose function expression
    ``matches`` accepts."""
    return [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and matches(node.func)]


def test_series_csv_has_one_reader():
    """``src/`` calls ``np.loadtxt`` once, in the reader behind
    ``cli.read_series``: a faster way to reach some rows of a series must
    use that reader, not grow a second one beside it."""
    calls = _calls(lambda func: isinstance(func, ast.Attribute) and func.attr == "loadtxt")
    assert len(calls) == 1 and calls[0].startswith("cli.py:"), calls


def test_one_fork():
    """``src/`` calls ``os.fork`` once, in ``cli._start_worker``: the CSV
    writer and the reference read share its pipe, its child's exit and its
    reaping, and a second fork must not grow a second copy of them."""
    def is_fork(func):
        return (isinstance(func, ast.Attribute) and func.attr == "fork"
                and isinstance(func.value, ast.Name) and func.value.id == "os")
    calls = _calls(is_fork)
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    start = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_start_worker")
    assert calls == [f"cli.py:{node.lineno}" for node in ast.walk(start)
                     if isinstance(node, ast.Call) and is_fork(node.func)], calls
    assert len(calls) == 1, calls


def test_json_has_one_decoder():
    """``src/`` calls ``json.load`` or ``json.loads`` once, in
    ``groups.parse_json``: config, group and model files and the command-line
    arrays are decoded under one set of rules, and their numbers are checked
    by ``groups.json_numbers``."""
    calls = _calls(lambda func: isinstance(func, ast.Attribute)
                   and func.attr in ("load", "loads")
                   and isinstance(func.value, ast.Name) and func.value.id == "json")
    assert len(calls) == 1 and calls[0].startswith("groups.py:"), calls


def test_src_forms_no_kronecker_product():
    """``src/`` calls no ``kron``: the basis constraint is filled from the rows
    of ``groups.action_rows``, with no dense Ghat, and matching pursuit in
    ``tensorops._omp`` builds only the selected columns of A (x) I_lag."""
    calls = _calls(lambda func: isinstance(func, ast.Attribute) and func.attr == "kron")
    assert calls == [], calls


def test_every_module_import_is_read():
    """Each name that a top-level ``import`` or ``from ... import`` binds in a
    module of ``src/earc`` (``__init__.py`` aside, whose imports are its
    exports) is read somewhere in that module: code that loses its last use
    of a name loses the import too."""
    bound, unread = [], []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    bound.append(f"{path.name}: {name}")
                    if name not in read:
                        unread.append(bound[-1])
    assert "cli.py: ValidationError" in bound  # the guard reads the imports
    assert unread == []

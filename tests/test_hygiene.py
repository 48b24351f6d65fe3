"""Source-level rules for the library.

`assert` statements vanish under `python -O`, so a self-check that protects a
result must raise an exception or live in a test.  The benchmark's tracer
finds the functions it wraps by name, so a rename must fail here first.  A
module imports only names it uses, so a refactor cannot leave one behind."""

import ast
import importlib.util
import inspect
from pathlib import Path

import toppling

SRC = Path(toppling.__file__).parent


def test_no_assert_in_library():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_tracer_names_resolve():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = [(mod, name) for mod, names in tracing.SPANS.items() for name in names]
    wrapped += [(mod, name) for mod, name, _, _ in tracing.COUNTERS.values()]
    missing = [f"{mod}.{name}" for mod, name in wrapped if not inspect.isfunction(
        getattr(importlib.import_module(f"toppling.{mod}"), name, None))]
    assert missing == []
    unders = {under for _, _, under, _ in tracing.COUNTERS.values()} - {None}
    assert unders <= set(tracing.NAME_ID)

"""Source-level rules for the library.

`assert` statements vanish under `python -O`, so a self-check that protects a
result must raise an exception or live in a test."""

import ast
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

"""Internal invariants raise exceptions: `python -O` strips assert statements."""
import ast
from pathlib import Path

import tljhecke


def test_no_assert_statements_in_package():
    src = Path(tljhecke.__file__).resolve().parent
    paths = sorted(src.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found

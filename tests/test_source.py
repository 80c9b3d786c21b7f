"""Source-level invariants of the package."""

import ast
from pathlib import Path

import lgb

SOURCES = sorted(Path(lgb.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements; invariants raise explicitly
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert len(SOURCES) >= 10
    assert found == []

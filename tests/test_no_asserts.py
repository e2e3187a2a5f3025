"""Invariant checks in the package must raise, not assert: ``python -O``
strips assert statements."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "torusmirror"


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found

"""Invariant checks in the package must raise, not assert: ``python -O``
strips assert statements, and an invariant raises RuntimeError, never
AssertionError."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "torusmirror"


def is_assertion(node) -> bool:
    """An assert statement, or a raise of AssertionError."""
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"
    return isinstance(node, ast.Assert)


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if is_assertion(node)
    ]
    assert not found, found

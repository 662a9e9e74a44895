"""Invariants in the package are typed AnnforgeErrors, never ``assert``
statements, so they still hold under ``python -O``."""

from __future__ import annotations

import ast
from pathlib import Path

import annforge

PACKAGE = Path(annforge.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert not found, f"assert statements in annforge: {found}"

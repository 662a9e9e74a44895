"""Every function and class defined in ``src/annforge`` is referenced in
``src/``, ``scripts/`` or ``perfbench/`` outside its own definition, as an
identifier or as a string constant (``perfbench/tracing.py`` wraps layer
functions by name).  Code that only tests call belongs in ``tests/``.

The package's ``__init__.py`` is not a reference: exporting a name does not
use it.  Imports are not references either, and special methods
(``__eq__``, ``__post_init__``, ...) are called by the language, so they are
not checked."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "annforge"

#: Paper objects that no command, script or benchmark calls yet, and why
#: they stay.
ALLOWED = {
    "decompose": "the paper's split of h into f(z + alpha) - beta and a term in the "
                 "gate ideal (acceptance criterion 3); no command exposes it yet",
    "extract_hard_multiple": "the paper's recovery of a multiple of f - beta from any "
                             "annihilator (acceptance criterion 10); no command exposes it yet",
}


def _sources() -> list[Path]:
    paths = []
    for top in ("src", "scripts", "perfbench"):
        paths += sorted((ROOT / top).rglob("*.py"))
    return [p for p in paths if p != PACKAGE / "__init__.py"]


def _references(tree: ast.AST):
    """(name, line) for each identifier, attribute and string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def _definitions(tree: ast.AST):
    """(name, first line, last line) of each function and class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.walk(tree):
        if isinstance(node, kinds) and not (node.name.startswith("__")
                                             and node.name.endswith("__")):
            yield node.name, node.lineno, node.end_lineno


def unreferenced() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in _sources()}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    missing = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        for name, first, last in _definitions(tree):
            if not any(n == name and (where != path or not first <= line <= last)
                       for where, found in refs.items() for n, line in found):
                missing.append(f"{path.relative_to(ROOT)}:{first} {name}")
    return missing


def test_every_definition_is_referenced_outside_tests():
    missing = [m for m in unreferenced() if m.split()[-1] not in ALLOWED]
    assert missing == []


def test_allowed_names_are_still_defined_and_unreferenced():
    # An entry that a command now reaches, or that was deleted, goes.
    assert sorted(m.split()[-1] for m in unreferenced()) == sorted(ALLOWED)

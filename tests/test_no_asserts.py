"""Static guards on the package source.

Invariants in the package are typed AnnforgeErrors, never ``assert``
statements, so they still hold under ``python -O``.  Arithmetic is exact:
no float literal, no use of ``float`` and no float-valued ``math`` call.
The term budget has one owner, ``config``, and the stored integer form of a
polynomial one too, ``poly``.  ``config`` also owns how text becomes an
integer (``read_int``) and how a refusal repeats its input (``quote``)."""

from __future__ import annotations

import ast
from pathlib import Path

import annforge

PACKAGE = Path(annforge.__file__).parent
#: The integer-exact functions the package may import from math.
EXACT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def package_nodes():
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            yield f"{path.relative_to(PACKAGE)}:{getattr(node, 'lineno', 0)}", node


def test_package_has_no_assert_statements():
    found = [where for where, node in package_nodes() if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in annforge: {found}"


def is_float_use(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    if isinstance(node, ast.Name):
        return node.id == "float"
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "math"
    if isinstance(node, ast.ImportFrom) and node.module == "math":
        return any(alias.name not in EXACT_MATH for alias in node.names)
    return False


def test_package_has_no_floats():
    found = [where for where, node in package_nodes() if is_float_use(node)]
    assert not found, f"float arithmetic in annforge: {found}"


def is_term_budget_rule(node: ast.AST) -> bool:
    """Reading AF_TERM_BUDGET, calling term_budget() or raising
    BudgetExceededError: each belongs to config.check_budget."""
    if isinstance(node, ast.Constant):
        return node.value == "AF_TERM_BUDGET"
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in {"term_budget", "BudgetExceededError"}
    return False


def test_only_config_holds_the_term_budget_rule():
    found = [where for where, node in package_nodes()
             if is_term_budget_rule(node) and not where.startswith("config.py:")]
    assert not found, f"term-budget rule outside config: {found}"


def test_only_poly_reads_polynomial_storage():
    # Other modules read a polynomial through its methods; the integer form
    # through Polynomial.integer_terms.
    found = [where for where, node in package_nodes()
             if isinstance(node, ast.Attribute) and node.attr in {"_terms", "_den"}
             and not where.startswith("poly.py:")]
    assert not found, f"Polynomial storage read outside poly: {found}"


def allowed_lines(path: str, owners: set[str]) -> set[str]:
    """The "<path>:<line>" of every line inside a function named in
    ``owners`` ("<Class>.<function>" for a method) in ``path``."""
    tree = ast.parse((PACKAGE / path).read_text(encoding="utf-8"))
    found = set()
    for scope in [tree, *[n for n in tree.body if isinstance(n, ast.ClassDef)]]:
        prefix = f"{scope.name}." if isinstance(scope, ast.ClassDef) else ""
        for node in scope.body:
            if isinstance(node, ast.FunctionDef) and prefix + node.name in owners:
                found |= {f"{path}:{i}" for i in range(node.lineno, node.end_lineno + 1)}
    return found


def test_only_read_int_turns_text_into_an_integer():
    # PrimeField.normalize converts a number, never text, to a residue.
    allowed = (allowed_lines("config.py", {"read_int"})
               | allowed_lines("fields.py", {"PrimeField.normalize"}))
    found = [where for where, node in package_nodes()
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "int" and where not in allowed]
    assert not found, f"int() outside config.read_int: {found}"


def test_refusals_repeat_input_only_through_quote():
    found = [where for where, node in package_nodes() if isinstance(node, ast.Raise)
             for part in ast.walk(node) if isinstance(part, ast.FormattedValue)
             and part.conversion == ord("r")]
    assert not found, f"!r in a raised message, not config.quote: {found}"

"""Exception hierarchy shared across the package.

Every refusal is an AnnforgeError whose class has its own qualified
``code``, which the CLI prints as ``error [<code>]: <message>``.  InputError
refuses an argument, flag or value and names the flag that caused it;
ParseError refuses malformed text or file content.  Resource-guard errors
(budgets, ceilings, matrix-size guards) subclass ResourceLimitError so
callers can map them to a common exit code.  No class is a ValueError.
"""

from __future__ import annotations


class AnnforgeError(Exception):
    """Base class for all package errors."""

    code = "annforge.error"


class FieldMismatchError(AnnforgeError):
    code = "field.mismatch"


class ModularReductionError(AnnforgeError, ZeroDivisionError):
    """A rational value has no image in F_p: p divides its denominator."""

    code = "field.not_reducible"


class InputError(AnnforgeError):
    code = "input.invalid"


class ParseError(AnnforgeError):
    code = "parse.error"


class CircuitError(AnnforgeError):
    code = "circuit.invalid"


class MissingAssignmentError(AnnforgeError):
    code = "poly.missing_assignment"


class SupportOverflowError(AnnforgeError):
    code = "encoding.support_overflow"


class ResourceLimitError(AnnforgeError):
    code = "limit.exceeded"


class BudgetExceededError(ResourceLimitError):
    """Raised by config.check_budget for every stage, so the code names the limit."""

    code = "limit.term_budget_exceeded"


class SearchSpaceTooLargeError(ResourceLimitError):
    code = "annihilator.search_space_too_large"


class MatrixTooLargeError(ResourceLimitError):
    code = "algebra.matrix_too_large"


class PointBudgetExceededError(ResourceLimitError):
    code = "pit.point_budget_exceeded"


class NotAnAnnihilatorError(AnnforgeError):
    code = "annihilator.not_an_annihilator"


class DecompositionMismatchError(AnnforgeError):
    code = "annihilator.decomposition_mismatch"


class SystemSatisfiableError(AnnforgeError):
    code = "ips.system_satisfiable"


class InvariantError(AnnforgeError):
    """An internal consistency check failed; the result cannot be trusted."""

    code = "annforge.invariant"

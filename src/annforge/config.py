"""Run configuration: limits, trial counts and the default prime.

AF_TERM_BUDGET and AF_MONOMIAL_CEILING are read each time a guard runs, so
one process honours per-invocation overrides; each must be an integer >= 1,
and unset or empty means the default.  check_budget is the one term-budget
rule, refusing a measured size above the budget; no other module reads the
budget or raises BudgetExceededError.

CPython converts no integer of more than sys.get_int_max_str_digits() (4300)
decimal digits to or from text.  int_text, exact_text and read_int are the
one rule for an integer of unbounded size: a message shows it by int_text,
which never fails; a report or file writes it by exact_text and a reader
reads it by read_int, which refuse one past the limit.  read_int is also
the one place where text becomes an integer, and quote the one way a
refusal repeats its input.
"""

from __future__ import annotations

import os
import re
import sys
from fractions import Fraction
from typing import Callable

from .errors import BudgetExceededError, InputError, ParseError

#: Default prime for randomized rank / PIT work and the modular-first kernel
#: search (Mersenne, fits in 64 bits).
DEFAULT_PRIME = 2**61 - 1

#: The limits read from the environment, with their defaults.
ENV_LIMITS = {"AF_TERM_BUDGET": 1_000_000, "AF_MONOMIAL_CEILING": 5_000}
DEFAULT_POINT_BUDGET = 200_000
DEFAULT_TRIALS = 2
#: Guard on Sylvester/exact-determinant matrix size (cofactor expansion).
DET_SIZE_LIMIT = 12
#: The characters of an input that a refusal repeats (quote).
QUOTE_LIMIT = 60
#: An integer in text, a flag, the environment or a file (read_int).
_INT_RE = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def env_limit(name: str) -> int:
    """The integer >= 1 in environment variable ``name``, else its default."""
    text = os.environ.get(name)
    value = read_int(text, name, InputError) if text else ENV_LIMITS[name]
    if value is None or value < 1:
        raise InputError(f"{name}={quote(text)} is not an integer >= 1")
    return value


def term_budget() -> int:
    """Effective term budget (env > default)."""
    return env_limit("AF_TERM_BUDGET")


def monomial_ceiling() -> int:
    """Effective kernel-search candidate ceiling (env > default)."""
    return env_limit("AF_MONOMIAL_CEILING")


def check_budget(what: str | Callable[[], str], size: int) -> None:
    """Refuse a ``size`` above the term budget: "<what> exceeds budget <limit>".
    ``what`` may be a function giving the text, called only to refuse."""
    budget = term_budget()
    if size > budget:
        text = what() if callable(what) else what
        raise BudgetExceededError(f"{text} exceeds budget {budget}")


def check_degree(what: str, d: int) -> None:
    """Refuse a degree ``d``, which counts its d + 1 coefficients."""
    check_budget(lambda: f"{what} {int_text(d)}", d + 1)


def check_map_size(stage: str, seed_len: int, out_len: int) -> None:
    """Refuse a map before ``stage`` builds it: it counts its larger side."""
    check_budget(lambda: f"{stage}: a map with seed length {int_text(seed_len)} "
                         f"and {int_text(out_len)} outputs",
                 max(seed_len, out_len))


def int_text(n: int) -> str:
    """``n`` in decimal for a message, cut as quote cuts it, or, past the
    digit limit, its size in bits."""
    try:
        return quote(n, str)
    except ValueError:
        return f"(a {n.bit_length()}-bit integer)"


def exact_text(value: int | Fraction, what: str) -> str:
    """``value`` in decimal for a report or a file; past the digit limit an
    InputError, "<what> has more than <limit> digits"."""
    try:
        return str(value)
    except ValueError as exc:
        raise InputError(f"{what} has more than {sys.get_int_max_str_digits()} digits") from exc


def read_int(text: str, what: str, error: type[Exception] = ParseError) -> int | None:
    """The integer that ``text`` writes as ASCII ``[+-]?[0-9]+``, with ASCII
    whitespace around it, or None for any other text, which each caller
    refuses in its own words; past the digit limit ``error``, "<what> has
    more than <limit> digits"."""
    if not _INT_RE.fullmatch(text):
        return None
    try:
        return int(text)
    except ValueError as exc:
        raise error(f"{what} has more than {sys.get_int_max_str_digits()} digits") from exc


def quote(value, show: Callable[[object], str] = repr) -> str:
    """``show(value)``, by default its repr, as a refusal repeats it: past
    QUOTE_LIMIT characters cut there and followed by its full length."""
    text = show(value)
    if len(text) <= QUOTE_LIMIT:
        return text
    return f"{text[:QUOTE_LIMIT]}... ({len(text)} characters)"

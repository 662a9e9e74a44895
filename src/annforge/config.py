"""Run configuration: limits, trial counts and the default prime.

AF_TERM_BUDGET and AF_MONOMIAL_CEILING are read each time a guard runs, so
one process honours per-invocation overrides; each must be an integer >= 1,
and unset or empty means the default.  check_budget is the one term-budget
rule, refusing a measured size above the budget; no other module reads the
budget or raises BudgetExceededError.
"""

from __future__ import annotations

import os

from .errors import BudgetExceededError

#: Default prime for randomized rank / PIT work and the modular-first kernel
#: search (Mersenne, fits in 64 bits).
DEFAULT_PRIME = 2**61 - 1

#: The limits read from the environment, with their defaults.
ENV_LIMITS = {"AF_TERM_BUDGET": 1_000_000, "AF_MONOMIAL_CEILING": 5_000}
DEFAULT_POINT_BUDGET = 200_000
DEFAULT_TRIALS = 2
#: Guard on Sylvester/exact-determinant matrix size (cofactor expansion).
DET_SIZE_LIMIT = 12


def env_limit(name: str) -> int:
    """The integer >= 1 in environment variable ``name``, else its default."""
    text = os.environ.get(name)
    try:
        value = int(text) if text else ENV_LIMITS[name]
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{name}={text!r} is not an integer >= 1")
    return value


def term_budget() -> int:
    """Effective term budget (env > default)."""
    return env_limit("AF_TERM_BUDGET")


def monomial_ceiling() -> int:
    """Effective kernel-search candidate ceiling (env > default)."""
    return env_limit("AF_MONOMIAL_CEILING")


def check_budget(what: str, size: int) -> None:
    """Refuse a ``size`` above the term budget: "<what> exceeds budget <limit>"."""
    budget = term_budget()
    if size > budget:
        raise BudgetExceededError(f"{what} exceeds budget {budget}")


def check_degree(what: str, d: int) -> None:
    """Refuse a degree ``d``, which counts its d + 1 coefficients."""
    check_budget(f"{what} {d}", d + 1)


def check_map_size(stage: str, seed_len: int, out_len: int) -> None:
    """Refuse a map before ``stage`` builds it: it counts its larger side."""
    check_budget(f"{stage}: a map with seed length {seed_len} and {out_len} outputs",
                 max(seed_len, out_len))

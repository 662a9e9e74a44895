"""Run configuration: budgets, ceilings, trial counts and the default prime.

Every limit is read from here when the guarded function runs.  Env
overrides: AF_TERM_BUDGET (circuit expansion term budget) and
AF_MONOMIAL_CEILING (annihilator kernel-search monomial count guard) are read
at call time so a single process can honour per-invocation overrides.
"""

from __future__ import annotations

import os

#: Default prime for randomized rank / PIT work and the modular-first kernel
#: search (Mersenne, fits in 64 bits).
DEFAULT_PRIME = 2**61 - 1

DEFAULT_TERM_BUDGET = 1_000_000
DEFAULT_MONOMIAL_CEILING = 5_000
DEFAULT_POINT_BUDGET = 200_000
DEFAULT_TRIALS = 2
#: Guard on Sylvester/exact-determinant matrix size (cofactor expansion).
DET_SIZE_LIMIT = 12


def term_budget() -> int:
    """Effective expansion term budget (env > default)."""
    env = os.environ.get("AF_TERM_BUDGET")
    return int(env) if env else DEFAULT_TERM_BUDGET


def monomial_ceiling(override: int | None = None) -> int:
    """Effective kernel-search monomial ceiling (override > env > default)."""
    if override is not None:
        return override
    env = os.environ.get("AF_MONOMIAL_CEILING")
    return int(env) if env else DEFAULT_MONOMIAL_CEILING

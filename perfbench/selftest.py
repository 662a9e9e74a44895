"""Self-tests of the oracle and of the checks built on it.

A check that accepts everything proves nothing, so these show that the
checks reject a perturbed generator h and an off-by-one kernel dimension,
and that the dimension formula agrees with a brute-force count made by
evaluation alone.  ``run.py`` runs them before it measures; they also run
standalone:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import oracle
from workloads import SQUARES_DIFF, CheckError, check_dimension, check_generator

#: The paper's generator for the worked example at alpha = (0, 0), beta = 0
#: (the published expansion, negated to be monic in z7).
PUBLISHED_H = ("-z1^2 + z2^2 - z1*z3 - z2*z3 - z1*z4 + z2*z4 - z3*z4 - z1*z5"
               " - z2*z5 - z4*z5 - z6 + z7")


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except CheckError:
        return True
    return False


def _brute_force_dimension(d: int, max_degree: int) -> int:
    """Dimension of the annihilators of degree <= D of the map
    (x^d - 1, x - 1), as the kernel of the candidate monomials evaluated at
    many points."""
    cands = [(a, b) for a in range(max_degree + 1) for b in range(max_degree + 1 - a)]
    rng = random.Random(7)
    rows = []
    for _ in range(3 * len(cands)):
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
        z1, z2 = x**d - 1, x - 1
        rows.append({j: z1**a * z2**b for j, (a, b) in enumerate(cands)})
    return len(cands) - oracle.rank(rows)


def run() -> None:
    circuit = oracle.DslCircuit(SQUARES_DIFF)
    rng = random.Random(1)
    points = [[Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(6)]
              for _ in range(2)]
    check_generator(PUBLISHED_H, circuit, [0, 0], 0, points)
    perturbed = [
        PUBLISHED_H.replace("- z3*z4", "- 2*z3*z4"),
        PUBLISHED_H + " + 1",
        PUBLISHED_H.replace("+ z7", "+ 2*z7"),
        PUBLISHED_H.replace("+ z7", "+ z7^2"),
    ]
    for text in perturbed:
        if not _rejects(check_generator, text, circuit, [0, 0], 0, points):
            raise AssertionError(f"check accepted a perturbed h: {text}")
    for d in (2, 3):
        for max_degree in (d - 1, d, d + 1):
            found = _brute_force_dimension(d, max_degree)
            check_dimension(found, 2, max_degree, d)
            for wrong in (found - 1, found + 1):
                if not _rejects(check_dimension, wrong, 2, max_degree, d):
                    raise AssertionError(f"check accepted dimension {wrong}")
    if oracle.count_models([(1, 2, 3), (-1, -2, -3)], 3) != 6:
        raise AssertionError("model counter is wrong on a 3-variable system")


if __name__ == "__main__":
    run()
    print("oracle self-tests passed")
    sys.exit(0)

"""Jacobian rank as the package computed it before it skipped zero entries,
kept as the reference oracle.

``rank_random_eval`` is the earlier body, unchanged: every entry of the
matrix, structural zeros included, is evaluated in every trial, and over
QQ every entry is reduced into F_p.  The differential test in
``test_linalg.py`` requires the package's rank to be the same.
"""

from __future__ import annotations

import random

from annforge import config
from annforge.fields import PrimeField
from annforge.linalg import PolyMatrix, row_reduce
from annforge.poly import Polynomial


def rank_random_eval(
    matrix: PolyMatrix, trials: int = config.DEFAULT_TRIALS,
    p: int = config.DEFAULT_PRIME, seed: int = 0,
) -> int:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    entries = matrix.entries
    if isinstance(matrix.field, PrimeField):
        gf = matrix.field  # evaluate natively; a foreign modulus would be unsound
    else:
        gf = PrimeField(p)  # validates primality
        # Reduce the coefficients once; evaluation then stays in F_p.
        entries = [[Polynomial(gf, dict(e.iter_terms())) for e in row] for row in entries]
    rng = random.Random(seed)
    variables = sorted(matrix.variables())
    point = [0] * (variables[-1] + 1 if variables else 0)
    best = 0
    for _ in range(trials):
        for v in variables:
            point[v] = rng.randrange(gf.p)
        rows = [dict(enumerate(entry.evaluate(point) for entry in row)) for row in entries]
        best = max(best, len(row_reduce(rows, matrix.cols, gf)))
    return best

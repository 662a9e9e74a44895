#!/usr/bin/env python3
"""Minimal annihilator degree survey for the power-sum maps.

Measures the smallest total degree admitting a nonzero annihilator for the
x_i^d - 1 family (classical prediction: d^n) and its constant-locality chain
variant, which is measured rather than asserted.

Every degree is searched over QQ.  The search reduces mod 2^61 - 1 first,
so a degree with an empty mod-p kernel is ruled out without rational
elimination; the basis found at the first nonzero degree is confirmed once
more by exact composition with the map.

    python3 scripts/degree_survey.py            # desk-scale cases, ~0.25 s
    python3 scripts/degree_survey.py --full     # adds n=3 d=2, ~0.35 s

(Whole-run wall times, interpreter start included, on 2 shared cores with
CPython 3.11.)
"""

from __future__ import annotations

import argparse
import os
import time

from annforge import annihilator_basis_search, verify_annihilates
from annforge.encoding import PolynomialMap
from annforge.instances import kayal_chain_map, kayal_map


def minimal_degree(pmap: PolynomialMap, max_degree: int) -> tuple[int | None, int]:
    """(min degree with nonzero annihilator space, its exact dimension)."""
    for degree in range(1, max_degree + 1):
        basis = annihilator_basis_search(pmap, degree)
        if basis:
            if not all(verify_annihilates(q, pmap) for q in basis):
                raise SystemExit(f"degree {degree}: a basis vector does not annihilate")
            return degree, len(basis)
    return None, 0


def report(family: str, n: int, d: int, pmap: PolynomialMap, max_degree: int) -> None:
    start = time.monotonic()
    found, dim = minimal_degree(pmap, max_degree)
    elapsed = time.monotonic() - start
    shown = str(found) if found is not None else f"> {max_degree}"
    dim_shown = str(dim) if found is not None else "-"
    print(f"{family:<12}{n:>3}{d:>3}{shown:>12}{dim_shown:>6}{d ** n:>6}"
          f"{elapsed:>9.1f}s")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="include the n=3 d=2 case")
    parser.add_argument("--chain-max", type=int, default=6,
                        help="degree cap for the chain variant (default 6)")
    args = parser.parse_args()
    # The searches below reach at most 495 candidates; a raised ceiling lets
    # a larger --chain-max search past the default of 5,000.
    os.environ.setdefault("AF_MONOMIAL_CEILING", "100000")

    print(f"{'family':<12}{'n':>3}{'d':>3}{'min degree':>12}{'dim':>6}"
          f"{'d^n':>6}{'time':>10}")
    cases = [(1, 2, 3), (2, 2, 5), (1, 3, 4), (2, 3, 9)]
    if args.full:
        cases.append((3, 2, 8))
    for n, d, cap in cases:
        report("power-sum", n, d, kayal_map(n, d), cap)
    report("chain", 3, 2, kayal_chain_map(3, 2), args.chain_max)


if __name__ == "__main__":
    main()

"""The peel as the package built it before its step moved onto the stored
integers, kept as the reference oracle.

``reference_peel`` is the earlier ``encoding.peel``, unchanged but for its
name: it builds each step (den*z_j - g) over 1, composes it with sigma and
then scales the result by ``f.inv(c)``, a field value.  The tests in
``test_annihilates.py`` require ``encoding.peel`` to give the same
substitution and the same paired set on every map they draw.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from annforge.poly import Monomial, Polynomial


def reference_peel(outputs: Sequence[Polynomial], n_vars: int) -> tuple[dict, frozenset[int]]:
    """A triangular substitution sigma of the seed variables 0..n_vars-1
    and the set of outputs it pairs.

    While it can, pair the lowest-index output j that reads exactly one
    unpaired variable v, stored as (c*v + g)/den with v not in g, and set
    sigma(v) = (den*z_j - g o sigma)/c.  The k-th variable left unpaired goes
    to the fresh id len(outputs) + k.  Counts of unpaired variables per
    output and a heap of the outputs at count one spare rescans.  Outputs
    triangular in seed order pair v_j with output j."""
    f = outputs[0].field
    reads = [out.variables() for out in outputs]
    readers: list[list[int]] = [[] for _ in range(n_vars)]
    for j, vs in enumerate(reads):
        for v in vs:
            readers[v].append(j)
    unpaired = [len(vs) for vs in reads]
    ready = [j for j, count in enumerate(unpaired) if count == 1]
    sigma: dict[int, Polynomial] = {}
    paired: set[int] = set()
    while ready:
        j = heapq.heappop(ready)
        if unpaired[j] != 1:
            continue
        (v,) = (u for u in reads[j] if u not in sigma)
        diagonal = Monomial(((v, 1),))
        terms, den = outputs[j].integer_terms()
        step = {diagonal: den}
        for mono, n in terms:
            if mono == diagonal:
                c = n
            elif mono.degree_in(v):
                break  # v occurs other than in c*v
            else:
                step[mono] = -n
        else:
            # (den*v - g) / c with v kept as z_j and the paired variables by sigma.
            sigma[v] = Polynomial.variable(f, j)
            sigma[v] = Polynomial.from_integer_terms(f, step).compose(sigma).scale(f.inv(c))
            paired.add(j)
            for k in readers[v]:
                unpaired[k] -= 1
                if unpaired[k] == 1:
                    heapq.heappush(ready, k)
    for k, v in enumerate([v for v in range(n_vars) if v not in sigma]):
        sigma[v] = Polynomial.variable(f, len(outputs) + k)
    return sigma, frozenset(paired)

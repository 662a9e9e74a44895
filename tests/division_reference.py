"""Exact polynomial division, kept as a test oracle.

The tests use it to show that one polynomial is a multiple of another (an
annihilator of the principal generator h, a hard multiple of f - beta).
No command divides polynomials, so it lives here rather than in the
package.
"""

from __future__ import annotations

from annforge.fields import check_same_field
from annforge.poly import Monomial, Polynomial


def divides(a: Monomial, b: Monomial) -> bool:
    """Whether the monomial a divides b."""
    exps = dict(b)
    return all(exps.get(v, 0) >= e for v, e in a)


def divide(a: Monomial, b: Monomial) -> Monomial:
    """a / b; b must divide a."""
    merged = dict(a)
    for v, e in b:
        merged[v] -= e
    return Monomial((v, e) for v, e in merged.items() if e != 0)


def lead_term(p: Polynomial):
    """The graded-lex largest (monomial, coefficient) of a nonzero p."""
    return max(p.iter_terms(), key=lambda term: term[0].sort_key)


def exact_divide(p: Polynomial, divisor: Polynomial) -> Polynomial | None:
    """Quotient q with p = q * divisor, or None when not divisible.

    Single-divisor division under graded-lex: if at any step the leading
    term of the remainder is not divisible by the divisor's leading term,
    the remainder is provably nonzero and we stop.
    """
    check_same_field(p.field, divisor.field)
    if divisor.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    f = p.field
    lead_m, lead_c = lead_term(divisor)
    rem = p
    quot = {}
    while not rem.is_zero():
        rm, rc = lead_term(rem)
        if not divides(lead_m, rm):
            return None
        qm = divide(rm, lead_m)
        qc = f.mul(rc, f.inv(lead_c))
        quot[qm] = qc
        rem = rem - divisor * Polynomial(f, {qm: qc})
    return Polynomial(f, quot)

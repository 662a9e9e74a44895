"""Polynomial text as the package read and wrote it before the reader and the
writer worked on the stored integers, kept as the reference oracle.

``reference_parse_polynomial`` is the earlier ``poly.parse_polynomial`` and
``reference_format_polynomial`` the earlier ``poly.format_polynomial``,
unchanged but for their names, their own copy of the term regexes and the
graded-lex key written out: the reader multiplies each term's sign by its
``parse_value`` constants as field values, adds like terms as field values
and hands the sum to the general constructor, and the writer reduces every
coefficient by its gcd with the denominator and builds every factor's text
anew.  The differential tests in ``test_poly_text.py`` require the package's
reader to give an equal polynomial or raise the same exception with the same
message, and its writer to give the same text or the same refusal.
"""

from __future__ import annotations

import re
from math import gcd

from annforge import config
from annforge.errors import ParseError
from annforge.fields import Field, FieldValue
from annforge.poly import Monomial, Namespace, Polynomial

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_FACTOR_RE = re.compile(rf"({_NAME_RE.pattern})(?:\s*\^\s*(\d+))?|(\d+(?:/\d+)?)", re.ASCII)
_TERM_RE = re.compile(
    rf"([-+\s]*)((?:{_FACTOR_RE.pattern})(?:\s*\*\s*(?:{_FACTOR_RE.pattern}))*)\s*", re.ASCII
)


def _sort_key(mono: Monomial) -> tuple:
    return (sum(e for _, e in mono), tuple((-v, e) for v, e in mono))


def reference_parse_polynomial(text: str, field: Field, ns: Namespace) -> Polynomial:
    """Parse the term grammar, one _TERM_RE match per term; a syntax error
    raises ParseError naming the position where reading stopped."""
    if not text.strip():
        raise ParseError("empty polynomial text")
    terms: dict[Monomial, FieldValue] = {}  # the constructor normalizes, dropping zeros
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or pos and not m.group(1).strip():
            raise ParseError(f"syntax error at position {pos} in {config.quote(text)}")
        pos = m.end()
        coeff = -1 if m.group(1).count("-") % 2 else 1
        exps: dict[int, int] = {}
        for name, exp, constant in _FACTOR_RE.findall(m.group(2)):
            if constant:
                coeff *= field.parse_value(constant)
            else:
                var = ns.id(name)
                e = config.read_int(exp, f"the exponent of {name}") if exp else 1
                exps[var] = exps.get(var, 0) + e
        mono = Monomial.of(exps)
        terms[mono] = terms.get(mono, 0) + coeff
    return Polynomial(field, terms)


def reference_format_polynomial(p: Polynomial, ns: Namespace | None = None) -> str:
    """Canonical text: descending graded-lex terms, exact round trip."""
    if p.is_zero():
        return "0"
    name = ns.name if ns is not None else (lambda v: f"v{v + 1}")
    parts: list[str] = []
    den = p._den
    for mono, n in sorted(p._terms.items(), key=lambda t: _sort_key(t[0]), reverse=True):
        # The coefficient n/den in lowest terms; over F_p den is 1.
        g = gcd(n, den)
        c = config.exact_text(abs(n) // g, "a coefficient")
        if g != den:
            c += "/" + config.exact_text(den // g, "a coefficient's denominator")
        factors = [c] if c != "1" or not mono else []
        factors += [name(v) if e == 1 else f"{name(v)}^{config.exact_text(e, 'an exponent')}"
                    for v, e in mono]
        parts.append(f"{'-' if n < 0 else '+'} {'*'.join(factors)}")
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]

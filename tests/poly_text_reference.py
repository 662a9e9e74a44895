"""Polynomial text as the package read and wrote it before the term regex,
kept as the reference oracle.

``reference_parse_polynomial`` is the earlier ``poly.parse_polynomial`` and
``reference_format_polynomial`` the earlier ``poly.format_polynomial``,
unchanged but for their names: the parser tokenizes the whole text with
``_TOKEN_RE`` and then runs a sign/factor state machine over the tokens,
and the formatter formats each coefficient, negates it and formats it
again.  The differential tests in ``test_poly_text.py`` require the
package's reader to give an equal polynomial or raise the same exception
class, and its writer to give the same text.
"""

from __future__ import annotations

import re

from annforge.errors import ParseError
from annforge.fields import Field, FieldValue
from annforge.poly import Monomial, Namespace, Polynomial

_TOKEN_RE = re.compile(r"\s*([A-Za-z][A-Za-z0-9_]*|\d+/\d+|\d+|\^|\*|\+|-)")


def reference_parse_polynomial(text: str, field: Field, ns: Namespace) -> Polynomial:
    """Parse the term grammar; raises ParseError with position context."""
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"bad character at position {pos} in {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise ParseError("empty polynomial text")

    terms: dict[Monomial, FieldValue] = {}
    i = 0
    while i < len(tokens):
        sign = 1
        start = i
        while i < len(tokens) and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise ParseError(f"dangling sign in {text!r}")
        if 0 < start == i:
            raise ParseError(f"missing + or - before {tokens[i]!r} in {text!r}")
        coeff = field.one if sign == 1 else field.neg(field.one)
        exps: dict[int, int] = {}
        saw_factor = False
        while True:
            tok = tokens[i]
            if tok[0].isdigit():
                coeff = field.mul(coeff, field.parse_value(tok))
            else:
                var = ns.id(tok)
                exp = 1
                if i + 2 < len(tokens) and tokens[i + 1] == "^":
                    if not tokens[i + 2].isdigit():
                        raise ParseError(f"bad exponent after {tok} in {text!r}")
                    exp = int(tokens[i + 2])
                    i += 2
                elif i + 1 < len(tokens) and tokens[i + 1] == "^":
                    raise ParseError(f"dangling ^ in {text!r}")
                exps[var] = exps.get(var, 0) + exp
            saw_factor = True
            i += 1
            if i < len(tokens) and tokens[i] == "*":
                i += 1
                if i >= len(tokens):
                    raise ParseError(f"dangling * in {text!r}")
                continue
            break
        if not saw_factor:
            raise ParseError(f"empty term in {text!r}")
        mono = Monomial.of(exps)
        c = field.add(terms.get(mono, field.zero), coeff)
        if field.is_zero(c):
            terms.pop(mono, None)
        else:
            terms[mono] = c
    return Polynomial(field, terms)


def reference_format_polynomial(p: Polynomial, ns: Namespace | None = None) -> str:
    """Canonical text: descending graded-lex terms, exact round trip."""
    if p.is_zero():
        return "0"
    f = p.field
    parts: list[str] = []
    for idx, (mono, coeff) in enumerate(p.terms()):
        neg = f.format_value(coeff).startswith("-")
        mag = f.neg(coeff) if neg else coeff
        factors = []
        mag_text = f.format_value(mag)
        if mag_text != "1" or not mono:
            factors.append(mag_text)
        for v, e in mono:
            name = ns.name(v) if ns is not None else f"v{v + 1}"
            factors.append(name if e == 1 else f"{name}^{e}")
        body = "*".join(factors)
        if idx == 0:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)

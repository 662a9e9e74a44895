"""Canonical sparse multivariate polynomials over an exact field.

Variables are nonnegative integer ids; display names live in a Namespace and
only matter at the text boundary (parsing/printing).  A polynomial is
stored as integer numerators, in a dict keyed by Monomial (a tuple subclass
of sorted (var, exp) pairs, so keys hash and compare in C), over one
positive denominator: over F_p residues over 1, over QQ numerators with no
factor in common with it.  No zero is stored, so the form is canonical.
from_integer_terms builds it from integers, and the general constructor
clears field values (Fractions over QQ) to it; field values appear only at
the API edge.  Products (``*``, ``compose``, ``substitute``) go through one
integer loop, _ProductSum.  ``evaluate`` runs on a plan that the first call
compiles and the polynomial keeps.  Nothing changes a polynomial's terms
after construction, so a plan never goes stale.  The canonical order is
graded lexicographic with lower variable ids more significant (graded_lex).
Text is read into and written from the stored integers: the reader sums
each term's sign times its constants' numerators over the lcm of their
denominators, and the writer prints terms in descending canonical order, so
serialize -> parse -> serialize is a fixed point.

Text grammar: signed terms ``c*v1^e1*...*vk^ek`` with rational ``c``
written ``a`` or ``a/b``, e.g. ``x1^2 - x2^2 + 1/2*x3``.  Every term after
the first starts with one or more signs, the factors of a term are joined by
``*`` and ``^digits`` follows only a name, so ``3z1``, ``x1 x2``, ``2 3``
and ``2^3`` are errors.  Whitespace may stand anywhere except inside a
number or a name.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import count, islice
from math import gcd, lcm
from typing import ItemsView, Iterable, Iterator, Mapping, Sequence

from . import config
from .errors import InputError, MissingAssignmentError, ParseError
from .fields import Field, FieldValue, check_same_field


def graded_lex(mono: tuple) -> tuple:
    """The canonical order's key: degree, then the (-var, exp) pairs, so a
    larger key is a larger monomial.  terms() and the writer sort by it."""
    return sum([e for _, e in mono]), tuple([(-v, e) for v, e in mono])


class Monomial(tuple):
    """Product of variable powers: the tuple of its (var, exp) pairs, sorted
    by var, with strictly positive exponents.  The empty tuple is 1.

    A monomial is a plain tuple underneath and holds no other state, so as a
    dict key it hashes and compares in C."""

    __slots__ = ()

    @staticmethod
    def of(mapping: Mapping[int, int]) -> "Monomial":
        items = sorted((v, e) for v, e in mapping.items() if e != 0)
        for v, e in items:
            if e < 0 or v < 0:
                raise InputError(f"bad exponent entry ({v}, {e})")
        return Monomial(items)

    @property
    def degree(self) -> int:
        return sum(e for _, e in self)

    sort_key = property(graded_lex)

    def degree_in(self, var: int) -> int:
        for v, e in self:
            if v == var:
                return e
        return 0

    def mul(self, other: "Monomial") -> "Monomial":
        """The product, by a merge of the two sorted pair lists."""
        if not other:
            return self
        if not self:
            return other
        if self[-1][0] < other[0][0]:
            return Monomial(self + other)
        if other[-1][0] < self[0][0]:
            return Monomial(other + self)
        out = []
        i = j = 0
        while i < len(self) and j < len(other):
            (va, ea), (vb, eb) = self[i], other[j]
            if va < vb:
                out.append(self[i])
                i += 1
            elif vb < va:
                out.append(other[j])
                j += 1
            else:
                out.append((va, ea + eb))
                i += 1
                j += 1
        out += self[i:]
        out += other[j:]
        return Monomial(out)

    def without(self, var: int) -> "Monomial":
        return Monomial(pair for pair in self if pair[0] != var)

    def rename(self, mapping: Mapping[int, int]) -> "Monomial":
        return Monomial(sorted((mapping.get(v, v), e) for v, e in self))


MONOMIAL_ONE = Monomial()


class Polynomial:
    """Immutable-by-convention sparse polynomial: integer numerators over
    one denominator, in the canonical form the module docstring gives, so
    equality of (numerators, denominator) is canonical equality."""

    __slots__ = ("field", "_terms", "_den", "_plan")

    def __init__(self, field: Field, terms: Mapping[Monomial, FieldValue] | None = None):
        values = [(m, field.normalize(c)) for m, c in terms.items()] if terms else []
        # Over the lcm of reduced Fractions' denominators the numerators have
        # no common factor with it; a residue is an int, of denominator 1.
        den = lcm(*[c.denominator for _, c in values])
        self.field = field
        self._terms = {m: c.numerator * (den // c.denominator) for m, c in values if c}
        self._den = den
        self._plan = None  # the evaluation plan, built by the first evaluate

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_integer_terms(field: Field, terms: dict[Monomial, int], den: int = 1) -> "Polynomial":
        """The polynomial with integer numerators ``terms`` over ``den``
        (positive; 1 over F_p) in canonical form: zeros dropped, and numerators
        reduced mod p over F_p, divided with den by their gcd over QQ."""
        p = field.characteristic
        if p:
            terms = {m: r for m, n in terms.items() if (r := n % p)}
        else:
            terms = {m: n for m, n in terms.items() if n}
            if den != 1:
                g = gcd(den, *terms.values())
                if g != 1:
                    terms = {m: n // g for m, n in terms.items()}
                    den //= g
        out = Polynomial.__new__(Polynomial)
        out.field = field
        out._terms = terms
        out._den = den
        out._plan = None
        return out

    @staticmethod
    def zero(field: Field) -> "Polynomial":
        return Polynomial.from_integer_terms(field, {})

    @staticmethod
    def constant(field: Field, value) -> "Polynomial":
        c = field.normalize(value)  # a reduced Fraction over QQ, a residue over F_p
        return Polynomial.from_integer_terms(field, {MONOMIAL_ONE: c.numerator}, c.denominator)

    @staticmethod
    def variable(field: Field, var: int) -> "Polynomial":
        return Polynomial.from_integer_terms(field, {Monomial.of({var: 1}): 1})

    @staticmethod
    def monomial(field: Field, coeff, exps: Mapping[int, int]) -> "Polynomial":
        return Polynomial(field, {Monomial.of(exps): coeff})

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Monomial, FieldValue]]:
        """Terms in descending canonical (graded-lex) order."""
        order = sorted(self._terms, key=graded_lex, reverse=True)
        return ((m, self.coefficient(m)) for m in order)

    def iter_terms(self) -> Iterator[tuple[Monomial, FieldValue]]:
        """Terms in arbitrary order (no sorting cost)."""
        if self.field.characteristic:
            return iter(self._terms.items())
        d = self._den
        return ((m, Fraction(n, d)) for m, n in self._terms.items())

    def integer_terms(self) -> tuple[ItemsView[Monomial, int], int]:
        """The stored form, read-only: the (monomial, integer numerator)
        pairs and their positive common denominator, 1 over F_p."""
        return self._terms.items(), self._den

    def term_count(self) -> int:
        return len(self._terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((m.degree for m in self._terms), default=-1)

    def degree_in(self, var: int) -> int:
        return max((m.degree_in(var) for m in self._terms), default=0)

    def variables(self) -> set[int]:
        return {v for mono in self._terms for v, _ in mono}

    def constant_term(self) -> FieldValue:
        return self.coefficient(MONOMIAL_ONE)

    def coefficient(self, mono: Monomial) -> FieldValue:
        n = self._terms.get(mono, 0)
        return n if self.field.characteristic else Fraction(n, self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.field == other.field and self._den == other._den
                and self._terms == other._terms)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, -1)

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other, over the lcm of the denominators."""
        check_same_field(self.field, other.field)
        den = lcm(self._den, other._den)
        up, other_up = den // self._den, sign * (den // other._den)
        out = dict(self._terms) if up == 1 else {m: n * up for m, n in self._terms.items()}
        get = out.get
        for mono, n in other._terms.items():
            out[mono] = get(mono, 0) + n * other_up
        return self._wrap(out, den)

    def __neg__(self) -> "Polynomial":
        return self._wrap({m: -n for m, n in self._terms.items()}, self._den)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        check_same_field(self.field, other.field)
        products = _ProductSum()
        products.add(1, self, other)
        return self._wrap(products.sums, products.den)

    def scale(self, c) -> "Polynomial":
        c = self.field.normalize(c)
        a = c.numerator
        return self._wrap({m: n * a for m, n in self._terms.items()}, self._den * c.denominator)

    def _wrap(self, terms: dict[Monomial, int], den: int) -> "Polynomial":
        return Polynomial.from_integer_terms(self.field, terms, den)

    # -- evaluation / substitution -------------------------------------------

    def evaluate(self, point: Sequence[FieldValue]) -> FieldValue:
        """Exact value at a point indexed by variable id; every variable in
        the support must be assigned.

        On the polynomial's evaluation plan (see _compile), built by the
        first call: Field.read_point reads the values once as exact integers,
        each power above 1 is taken once (mod p over F_p), and one loop sums
        each stored numerator times its factors, with no branch per factor.
        Over QQ, at a point of integers, the value is that integer sum over
        the stored denominator, the only Fraction built.  The plan lists the
        variables in the order the terms meet them, so the error of the one
        read, MissingAssignmentError for a variable past the point's end or
        the field's refusal of a value, is the one a scan of the terms in
        order meets first."""
        plan = self._plan
        if plan is None:
            plan = self._plan = self._compile()
        ids, powers, den, terms = plan
        f = self.field
        try:
            xs = f.read_point(point, ids)
        except IndexError:
            v = next(v for v in ids if v >= len(point))
            raise MissingAssignmentError(f"no value for variable id {v}") from None
        p = f.characteristic or None
        if powers:
            xs += [pow(xs[i], e, p) for i, e in powers]
        total = 0
        for c, slots in terms:
            for i in slots:
                c *= xs[i]
            total += c
        if p:
            return total % p
        if not total:
            return f.zero
        return Fraction(total) if den == 1 else Fraction(total, den)

    def _compile(self) -> tuple:
        """The evaluation plan (ids, powers, den, terms), read from the stored
        form.  The variable ``ids``, in the order a scan of the terms first
        meets them, fill the first slots and the distinct ``powers`` (slot of
        a variable, exp > 1) the next; each term is (integer numerator,
        (slot, ...)), one slot per factor.  It depends on the terms only,
        which nothing changes after construction."""
        ids = tuple(dict.fromkeys(v for mono in self._terms for v, _ in mono))
        slot = {(v, 1): i for i, v in enumerate(ids)}
        for mono in self._terms:
            for pair in mono:
                slot.setdefault(pair, len(slot))
        powers = tuple((slot[v, 1], e) for v, e in slot if e > 1)  # in slot order
        terms = tuple((n, tuple(slot[pair] for pair in mono)) for mono, n in self._terms.items())
        return ids, powers, self._den, terms

    def compose(self, subst: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Simultaneous substitution var -> subst[var]; every variable in the
        support must be covered.  Powers of the substituted polynomials are
        memoized across terms; a degree in one variable that the term budget
        refuses (config.check_degree) raises before its power is built."""
        f = self.field
        for v in self.variables():
            if v not in subst:
                raise MissingAssignmentError(f"no substitution for variable id {v}")
        powers: dict[int, list[Polynomial]] = {}  # v -> [subst[v]^1, subst[v]^2, ...]

        def power(v: int, e: int, degree: int) -> Polynomial:
            """subst[v]^e for a term of ``degree`` (e or e + 1) in v; the
            degree is checked against the budget before the cache grows."""
            cache = powers.get(v)
            if cache is None:
                cache = powers[v] = [subst[v]]
            if len(cache) < degree:
                config.check_degree(f"variable id {v}: degree", degree)
                while len(cache) < e:
                    cache.append(cache[-1] * subst[v])
            return cache[e - 1]

        # Each term's last factor is multiplied straight into the sum; self's
        # numerators go in as ints, and its denominator divides the total once.
        unit = Polynomial.from_integer_terms(f, {MONOMIAL_ONE: 1})
        products = _ProductSum()
        for mono, n in self._terms.items():
            if not mono:
                products.add(n, unit, unit)
                continue
            v, e = mono[-1]
            left = power(v, e - 1, e) if e > 1 else unit
            for u, d in mono[:-1]:
                left = power(u, d, d) if left is unit else left * power(u, d, d)
            products.add(n, left, subst[v])
        return self._wrap(products.sums, products.den * self._den)

    def substitute(self, partial: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Like compose, but variables absent from ``partial`` stay themselves."""
        subst = dict(partial)
        for v in self.variables():
            if v not in subst:
                subst[v] = Polynomial.variable(self.field, v)
        return self.compose(subst)

    def rename_variables(self, mapping: Mapping[int, int]) -> "Polynomial":
        """Injective variable relabeling (ids absent from mapping unchanged)."""
        return self._wrap({m.rename(mapping): n for m, n in self._terms.items()}, self._den)

    # -- calculus / views ----------------------------------------------------

    def partial_derivative(self, var: int) -> "Polynomial":
        # Lowering the exponent of var is one-to-one on the monomials that
        # read var, so no two terms meet.
        out: dict[Monomial, int] = {}
        for mono, n in self._terms.items():
            e = mono.degree_in(var)
            if e:
                out[Monomial((v, k - (v == var)) for v, k in mono if v != var or k > 1)] = n * e
        return self._wrap(out, self._den)

    def coefficients_in(self, var: int) -> list["Polynomial"]:
        """Dense-in-one-variable view [q_0, ..., q_d]; storage stays sparse.
        Its d + 1 entries are checked against the term budget first."""
        d = self.degree_in(var)
        config.check_degree(f"variable id {var}: degree", d)
        buckets: list[dict[Monomial, int]] = [{} for _ in range(d + 1)]
        for m, n in self._terms.items():
            buckets[m.degree_in(var)][m.without(var)] = n
        return [self._wrap(b, self._den) for b in buckets]


class _ProductSum:
    """A sum of products n * left * right of polynomials, n an integer, kept
    as integer sums over one denominator: the value is sums[m] / den.  The
    numerators of a product are multiplied in Python ints over the product
    of its factors' denominators, and den is the lcm of those (earlier sums
    are scaled up when it grows).  Over F_p every den is 1, and _wrap
    reduces each sum once."""

    __slots__ = ("den", "sums")

    def __init__(self):
        self.den = 1
        self.sums: dict[Monomial, int] = {}

    def add(self, n: int, left: Polynomial, right: Polynomial) -> None:
        """Add n * left * right (n nonzero)."""
        den = left._den * right._den
        if den != self.den:
            common = lcm(self.den, den)
            if common != self.den:
                up = common // self.den
                self.sums = {m: s * up for m, s in self.sums.items()}
                self.den = common
            n *= common // den
        a = left._terms.items() if n == 1 else [(m, c * n) for m, c in left._terms.items()]
        sums = self.sums
        get = sums.get
        for ma, ca in a:
            for mb, cb in right._terms.items():
                mono = ma.mul(mb)
                sums[mono] = get(mono, 0) + ca * cb


# -- namespaces and the text grammar ----------------------------------------

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
#: One factor: a name with an optional ``^digits`` (groups 1, 2) or a
#: constant ``a`` or ``a/b`` (group 3).
_FACTOR_RE = re.compile(rf"({_NAME_RE.pattern})(?:\s*\^\s*(\d+))?|(\d+(?:/\d+)?)", re.ASCII)
#: One term: its signs (group 1), then its ``*``-joined factors (group 2).
_TERM_RE = re.compile(
    rf"([-+\s]*)((?:{_FACTOR_RE.pattern})(?:\s*\*\s*(?:{_FACTOR_RE.pattern}))*)\s*", re.ASCII
)


class Namespace:
    """Bidirectional map between variable ids and display names."""

    def __init__(self, names: Iterable[str]):
        self.names = list(names)
        self._ids = {n: i for i, n in enumerate(self.names)}
        if len(self._ids) != len(self.names):
            raise ParseError("duplicate variable names")
        for n in self.names:
            if not _NAME_RE.fullmatch(n):
                raise ParseError(f"invalid variable name {config.quote(n)}")

    def id(self, name: str) -> int:
        if name not in self._ids:
            raise ParseError(f"unknown variable {config.quote(name)}")
        return self._ids[name]

    def name(self, var: int) -> str:
        if var >= len(self.names):
            raise KeyError(f"variable id {var} outside namespace")
        return self.names[var]

    def extended(self, extra: Iterable[str]) -> "Namespace":
        return Namespace(self.names + list(extra))

    @staticmethod
    def outputs(m: int) -> "Namespace":
        """z1..zm: the output-side variables annihilators live on."""
        return Namespace(f"z{i}" for i in range(1, m + 1))

    @staticmethod
    def inferred(texts: Iterable[str]) -> "Namespace":
        """Collect identifiers from polynomial texts, natural-sorted
        (alphabetic prefix, then numeric suffix as an integer)."""
        seen = set()
        for text in texts:
            seen.update(_NAME_RE.findall(text))

        def key(name: str):
            m = re.fullmatch(r"([A-Za-z_]+?)(\d*)", name)
            prefix, digits = (m.group(1), m.group(2)) if m else (name, "")
            suffix = config.read_int(digits, "a variable's numeric suffix") if digits else -1
            return (prefix, suffix, name)

        return Namespace(sorted(seen, key=key))


def fresh_names(taken: Iterable[str], n: int) -> list[str]:
    """The first n of the names u1, u2, ... that are not in ``taken``."""
    taken = set(taken)
    return list(islice((name for i in count(1) if (name := f"u{i}") not in taken), n))


def parse_polynomial(text: str, field: Field, ns: Namespace) -> Polynomial:
    """Parse the term grammar, one _TERM_RE match per term, into the stored
    form; a syntax error raises ParseError naming where reading stopped."""
    if not text.strip():
        raise ParseError("empty polynomial text")
    read: list[tuple[Monomial, int, int]] = []
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or pos and not m.group(1).strip():
            raise ParseError(f"syntax error at position {pos} in {config.quote(text)}")
        pos = m.end()
        num, den = (-1 if m.group(1).count("-") % 2 else 1), 1
        exps: dict[int, int] = {}
        for name, exp, constant in _FACTOR_RE.findall(m.group(2)):
            if constant:
                a, b = field.parse_value(constant).as_integer_ratio()  # b is 1 over F_p
                num *= a
                den *= b
            else:
                var = ns.id(name)
                e = config.read_int(exp, f"the exponent of {name}") if exp else 1
                exps[var] = exps.get(var, 0) + e
        read.append((Monomial.of(exps), num, den))
    den = lcm(*[d for _, _, d in read])
    terms: dict[Monomial, int] = {}
    for mono, num, d in read:
        terms[mono] = terms.get(mono, 0) + num * (den // d)
    return Polynomial.from_integer_terms(field, terms, den)


def format_polynomial(p: Polynomial, ns: Namespace | None = None) -> str:
    """Canonical text: descending graded-lex terms, exact round trip."""
    if p.is_zero():
        return "0"
    name = ns.name if ns is not None else (lambda v: f"v{v + 1}")
    factors: dict[tuple[int, int], str] = {}  # (var, exp) -> its text
    parts: list[str] = []
    terms, den = p._terms, p._den
    for mono in sorted(terms, key=graded_lex, reverse=True):
        n = terms[mono]
        g = gcd(n, den) if den != 1 else 1  # den is 1 over F_p
        c = config.exact_text(abs(n) // g, "a coefficient")
        if g != den:
            c += "/" + config.exact_text(den // g, "a coefficient's denominator")
        body = [c] if c != "1" or not mono else []
        for pair in mono:
            if pair not in factors:
                v, e = pair
                factors[pair] = name(v) if e == 1 else \
                    f"{name(v)}^{config.exact_text(e, 'an exponent')}"
        body += [factors[pair] for pair in mono]
        parts.append(f"{'-' if n < 0 else '+'} {'*'.join(body)}")
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]

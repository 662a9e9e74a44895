"""Canonical sparse multivariate polynomials over an exact field.

Variables are nonnegative integer ids; display names live in a Namespace and
only matter at the text boundary (parsing/printing).  Terms are kept in a
dict keyed by Monomial, a tuple subclass holding the sorted (var, exp)
pairs, so keys hash and compare as plain tuples, in C.  Products (``*``,
``compose``, ``substitute``) go through one loop, _ProductSum, that sums
coefficient products in Python ints and builds one field value per output
monomial.  ``evaluate`` runs on a plan that the
first call compiles and the polynomial keeps: the variables read, one
common denominator and integer terms.  Nothing changes a polynomial's
terms after construction, so a plan never goes stale.  The canonical order
is graded lexicographic with lower variable ids more significant.  Printing always
emits terms in descending canonical order, so serialize -> parse ->
serialize is a fixed point.

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
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence

from . import config
from .errors import MissingAssignmentError, ModularReductionError, ParseError
from .fields import Field, FieldValue, check_same_field


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
                raise ValueError(f"bad exponent entry ({v}, {e})")
        return Monomial(items)

    @property
    def degree(self) -> int:
        return sum(e for _, e in self)

    @property
    def sort_key(self) -> tuple:
        # Graded lex, variable 0 most significant: compare degree first,
        # then (-var, exp) pairs so that a larger key means a larger monomial.
        return (self.degree, tuple((-v, e) for v, e in self))

    def degree_in(self, var: int) -> int:
        for v, e in self:
            if v == var:
                return e
        return 0

    def variables(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self)

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
    """Immutable-by-convention sparse polynomial; zero coefficients never
    stored, so dict equality is canonical equality."""

    __slots__ = ("field", "_terms", "_plan")

    def __init__(self, field: Field, terms: Mapping[Monomial, FieldValue] | None = None):
        self.field = field
        clean: dict[Monomial, FieldValue] = {}
        if terms:
            for mono, coeff in terms.items():
                c = field.normalize(coeff)
                if not field.is_zero(c):
                    clean[mono] = c
        self._terms = clean
        self._plan = None  # the evaluation plan, built by the first evaluate

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(field: Field) -> "Polynomial":
        return Polynomial(field)

    @staticmethod
    def constant(field: Field, value) -> "Polynomial":
        return Polynomial(field, {MONOMIAL_ONE: field.normalize(value)})

    @staticmethod
    def variable(field: Field, var: int) -> "Polynomial":
        return Polynomial(field, {Monomial.of({var: 1}): field.one})

    @staticmethod
    def monomial(field: Field, coeff, exps: Mapping[int, int]) -> "Polynomial":
        return Polynomial(field, {Monomial.of(exps): field.normalize(coeff)})

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Monomial, FieldValue]]:
        """Terms in descending canonical (graded-lex) order."""
        for mono in sorted(self._terms, key=lambda m: m.sort_key, reverse=True):
            yield mono, self._terms[mono]

    def iter_terms(self) -> Iterator[tuple[Monomial, FieldValue]]:
        """Terms in arbitrary order (no sorting cost)."""
        return iter(self._terms.items())

    def term_count(self) -> int:
        return len(self._terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((m.degree for m in self._terms), default=-1)

    def degree_in(self, var: int) -> int:
        return max((m.degree_in(var) for m in self._terms), default=0)

    def variables(self) -> set[int]:
        out: set[int] = set()
        for mono in self._terms:
            out.update(mono.variables())
        return out

    def constant_term(self) -> FieldValue:
        return self._terms.get(MONOMIAL_ONE, self.field.zero)

    def coefficient(self, mono: Monomial) -> FieldValue:
        return self._terms.get(mono, self.field.zero)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self._terms == other._terms

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, self.field.add)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, self.field.sub)

    def _combine(self, other: "Polynomial", op) -> "Polynomial":
        """self op other, termwise, in one pass over other's terms."""
        check_same_field(self.field, other.field)
        f = self.field
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            c = op(out.get(mono, f.zero), coeff)
            if f.is_zero(c):
                out.pop(mono, None)
            else:
                out[mono] = c
        return self._wrap(out)

    def __neg__(self) -> "Polynomial":
        f = self.field
        return self._wrap({m: f.neg(c) for m, c in self._terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        check_same_field(self.field, other.field)
        products = _ProductSum(self.field)
        products.add(self.field.one, self._terms, other._terms)
        return self._wrap(products.terms())

    def scale(self, c) -> "Polynomial":
        f = self.field
        c = f.normalize(c)
        if f.is_zero(c):
            return Polynomial.zero(f)
        return self._wrap({m: f.mul(v, c) for m, v in self._terms.items()})

    def _wrap(self, terms: dict[Monomial, FieldValue]) -> "Polynomial":
        p = Polynomial.__new__(Polynomial)
        p.field = self.field
        p._terms = terms
        p._plan = None
        return p

    # -- evaluation / substitution -------------------------------------------

    def evaluate(self, point: Sequence[FieldValue]) -> FieldValue:
        """Exact value at a point indexed by variable id; every variable in
        the support must be assigned.

        The arithmetic is in Python ints, on the polynomial's evaluation
        plan (see _compile), which the first call builds and later calls
        reuse.  Each value the plan reads is normalized into the field once.
        Over F_p a term is reduced once and the sum once.  Over QQ the
        integral values are read as ints and the others stay Fractions, so
        at a point of integers the plan's integer terms give an integer sum;
        the value is that sum over the common denominator d.  A short point
        or a value with no image in the field raises the error a scan in
        term order meets first."""
        plan = self._plan
        if plan is None:
            plan = self._plan = self._compile()
        variables, d, terms = plan
        f = self.field
        if variables and variables[-1] >= len(point):
            self._first_error(point)
        try:
            xs = [f.normalize(point[v]) for v in variables]
        except ModularReductionError:
            self._first_error(point)
            raise
        p = f.characteristic
        if p:
            total = 0
            for c, mono in terms:
                for i, e in mono:
                    c *= xs[i] if e == 1 else pow(xs[i], e, p)
                total += c % p
            return total % p
        xs = [x.numerator if x.denominator == 1 else x for x in xs]
        total = 0
        for c, mono in terms:
            for i, e in mono:
                c *= xs[i] if e == 1 else xs[i] ** e
            total += c
        if not total:
            return f.zero
        return Fraction(total, d)

    def _compile(self) -> tuple:
        """The evaluation plan: the sorted ids of the variables read, one
        common denominator d (the lcm of the coefficients' denominators over
        QQ, 1 over F_p) and the terms as (integer coefficient times d,
        ((index into the ids, exp), ...)).  It depends on the terms only,
        which no method changes after construction."""
        variables = sorted(self.variables())
        index = {v: i for i, v in enumerate(variables)}
        if self.field.characteristic:
            items, d = self._terms.items(), 1
        else:
            items, d = _integral(self._terms)
        terms = tuple((c, tuple((index[v], e) for v, e in mono)) for mono, c in items)
        return tuple(variables), d, terms

    def _first_error(self, point: Sequence[FieldValue]) -> None:
        """Raise the error that reading ``point`` in term order meets first:
        MissingAssignmentError for a variable past its end, or the error of
        normalizing a value."""
        f = self.field
        for mono in self._terms:
            for v, _ in mono:
                if v >= len(point):
                    raise MissingAssignmentError(f"no value for variable id {v}")
                f.normalize(point[v])

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

        # Each term's last factor is multiplied straight into the sum.
        unit = {MONOMIAL_ONE: f.one}
        products = _ProductSum(f)
        for mono, coeff in self._terms.items():
            if not mono:
                products.add(coeff, unit, unit)
                continue
            v, e = mono[-1]
            left = power(v, e - 1, e) if e > 1 else None
            for u, d in mono[:-1]:
                left = power(u, d, d) if left is None else left * power(u, d, d)
            products.add(coeff, unit if left is None else left._terms, subst[v]._terms)
        return self._wrap(products.terms())

    def substitute(self, partial: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Like compose, but variables absent from ``partial`` stay themselves."""
        subst = dict(partial)
        for v in self.variables():
            if v not in subst:
                subst[v] = Polynomial.variable(self.field, v)
        return self.compose(subst)

    def rename_variables(self, mapping: Mapping[int, int]) -> "Polynomial":
        """Injective variable relabeling (ids absent from mapping unchanged)."""
        return self._wrap({m.rename(mapping): c for m, c in self._terms.items()})

    # -- calculus / views ----------------------------------------------------

    def partial_derivative(self, var: int) -> "Polynomial":
        f = self.field
        out: dict[Monomial, FieldValue] = {}
        for mono, coeff in self._terms.items():
            e = mono.degree_in(var)
            if e == 0:
                continue
            lowered = dict(mono)
            if e == 1:
                lowered.pop(var)
            else:
                lowered[var] = e - 1
            m = Monomial(sorted(lowered.items()))
            c = f.add(out.get(m, f.zero), f.mul(coeff, f.normalize(e)))
            if f.is_zero(c):
                out.pop(m, None)
            else:
                out[m] = c
        return self._wrap(out)

    def coefficients_in(self, var: int) -> list["Polynomial"]:
        """Dense-in-one-variable view [q_0, ..., q_d]; storage stays sparse.
        Its d + 1 entries are checked against the term budget first."""
        d = self.degree_in(var)
        config.check_degree(f"variable id {var}: degree", d)
        buckets: list[dict[Monomial, FieldValue]] = [{} for _ in range(d + 1)]
        for m, c in self._terms.items():
            buckets[m.degree_in(var)][m.without(var)] = c
        return [self._wrap(b) for b in buckets]


class _ProductSum:
    """A sum of products coeff * left * right of term dicts over one field,
    kept in Python ints until terms() turns each monomial's sum into one
    field value.

    Over F_p the raw products ca*cb are summed and reduced once per
    monomial.  Over QQ each factor is scaled to integer numerators over the
    lcm of its denominators, coeff going with the left one, and the sums
    share one denominator d, the lcm of the denominators of all the
    products added (earlier sums are scaled up when it grows); a sum n
    becomes Fraction(n, d), or Fraction(n) when d = 1.  Zero sums are
    dropped."""

    __slots__ = ("p", "den", "sums")

    def __init__(self, f: Field):
        self.p = f.characteristic
        self.den = 1
        self.sums: dict[Monomial, int] = {}

    def add(self, coeff: FieldValue, left: dict, right: dict) -> None:
        """Add coeff * left * right (coeff nonzero)."""
        p = self.p
        if p:
            a = left.items() if coeff == 1 else [(m, c * coeff % p) for m, c in left.items()]
            b = right.items()
        else:
            a, da = _integral(left)
            b, db = _integral(right)
            den = coeff.denominator * da * db
            scale = coeff.numerator
            if den != self.den:
                common = lcm(self.den, den)
                if common != self.den:
                    up = common // self.den
                    self.sums = {m: n * up for m, n in self.sums.items()}
                    self.den = common
                scale *= common // den
            if scale != 1:
                a = [(m, c * scale) for m, c in a]
        sums = self.sums
        get = sums.get
        for ma, ca in a:
            for mb, cb in b:
                mono = ma.mul(mb)
                sums[mono] = get(mono, 0) + ca * cb

    def terms(self) -> dict:
        """The sums as field values, without the zero ones."""
        p, d = self.p, self.den
        if p:
            return {m: r for m, n in self.sums.items() if (r := n % p)}
        if d == 1:
            return {m: Fraction(n) for m, n in self.sums.items() if n}
        return {m: Fraction(n, d) for m, n in self.sums.items() if n}


def _integral(terms: dict) -> tuple[list, int]:
    """The (key, integer numerator) pairs of QQ terms over the lcm d of
    their denominators, and d; keys are monomials or column indices."""
    if len(terms) == 1:
        ((m, c),) = terms.items()
        return [(m, c.numerator)], c.denominator
    for c in terms.values():
        if c.denominator != 1:
            break
    else:
        return [(m, c.numerator) for m, c in terms.items()], 1
    d = lcm(*[c.denominator for c in terms.values()])
    return [(m, c.numerator * (d // c.denominator)) for m, c in terms.items()], d


# -- namespaces and the text grammar ----------------------------------------

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
#: One factor: a name with an optional ``^digits`` (groups 1, 2) or a
#: constant ``a`` or ``a/b`` (group 3).
_FACTOR_RE = re.compile(rf"({_NAME_RE.pattern})(?:\s*\^\s*(\d+))?|(\d+(?:/\d+)?)")
#: One term: its signs (group 1), then its ``*``-joined factors (group 2).
_TERM_RE = re.compile(
    rf"([-+\s]*)((?:{_FACTOR_RE.pattern})(?:\s*\*\s*(?:{_FACTOR_RE.pattern}))*)\s*"
)


class Namespace:
    """Bidirectional map between variable ids and display names."""

    def __init__(self, names: Iterable[str]):
        self.names = list(names)
        self._ids = {n: i for i, n in enumerate(self.names)}
        if len(self._ids) != len(self.names):
            raise ValueError("duplicate variable names")
        for n in self.names:
            if not _NAME_RE.fullmatch(n):
                raise ValueError(f"invalid variable name {n!r}")

    def id(self, name: str) -> int:
        if name not in self._ids:
            raise ParseError(f"unknown variable {name!r}")
        return self._ids[name]

    def name(self, var: int) -> str:
        if var >= len(self.names):
            raise KeyError(f"variable id {var} outside namespace")
        return self.names[var]

    def extended(self, extra: Iterable[str]) -> "Namespace":
        return Namespace(self.names + list(extra))

    @staticmethod
    def indexed(prefix: str, count: int, start: int = 1) -> "Namespace":
        return Namespace(f"{prefix}{i}" for i in range(start, start + count))

    @staticmethod
    def outputs(m: int) -> "Namespace":
        """z1..zm: the output-side variables annihilators live on."""
        return Namespace.indexed("z", m)

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
            return (prefix, int(digits) if digits else -1, name)

        return Namespace(sorted(seen, key=key))


def fresh_names(taken: Iterable[str], n: int) -> list[str]:
    """The first n of the names u1, u2, ... that are not in ``taken``."""
    taken = set(taken)
    return list(islice((name for i in count(1) if (name := f"u{i}") not in taken), n))


def parse_polynomial(text: str, field: Field, ns: Namespace) -> Polynomial:
    """Parse the term grammar, one _TERM_RE match per term; a syntax error
    raises ParseError naming the position where reading stopped."""
    if not text.strip():
        raise ParseError("empty polynomial text")
    minus_one = field.neg(field.one)
    terms: dict[Monomial, FieldValue] = {}
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or pos and not m.group(1).strip():
            raise ParseError(f"syntax error at position {pos} in {text!r}")
        pos = m.end()
        coeff = minus_one if m.group(1).count("-") % 2 else field.one
        exps: dict[int, int] = {}
        for name, exp, constant in _FACTOR_RE.findall(m.group(2)):
            if constant:
                coeff = field.mul(coeff, field.parse_value(constant))
            else:
                var = ns.id(name)
                exps[var] = exps.get(var, 0) + (int(exp) if exp else 1)
        mono = Monomial.of(exps)
        c = field.add(terms.get(mono, field.zero), coeff)
        if field.is_zero(c):
            terms.pop(mono, None)
        else:
            terms[mono] = c
    return Polynomial(field)._wrap(terms)


def format_polynomial(p: Polynomial, ns: Namespace | None = None) -> str:
    """Canonical text: descending graded-lex terms, exact round trip."""
    if p.is_zero():
        return "0"
    f = p.field
    name = ns.name if ns is not None else (lambda v: f"v{v + 1}")
    parts: list[str] = []
    for mono, coeff in p.terms():
        c = f.format_value(coeff)
        sign, c = ("-", c[1:]) if c[0] == "-" else ("+", c)
        factors = [c] if c != "1" or not mono else []
        factors += [name(v) if e == 1 else f"{name(v)}^{e}" for v, e in mono]
        parts.append(f"{sign} {'*'.join(factors)}")
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]

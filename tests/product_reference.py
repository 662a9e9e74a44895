"""Polynomial products as the package computed them before the int-native
loop and the tuple monomial keys, kept as the reference oracle.

``RefMonomial`` is the earlier dataclass ``Monomial`` and
``reference_add_product`` the earlier ``poly._add_product``, unchanged.
``reference_mul``, ``reference_pow``, ``reference_compose`` and
``reference_substitute`` are the earlier bodies of ``Polynomial.__mul__``,
``__pow__`` (since removed), ``compose`` and ``substitute``, as free functions on term dicts
keyed by ``RefMonomial``.  They work through one ``Field`` call per
operation.  The differential tests in ``test_products.py`` require the
package's products to give the same terms, coefficient types and text.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from annforge.errors import MissingAssignmentError
from annforge.fields import Field, FieldValue
from annforge.poly import Monomial, Polynomial


@dataclass(frozen=True)
class RefMonomial:
    """Product of variable powers; ``exps`` is a sorted tuple of (var, exp)
    pairs with strictly positive exponents.  The empty tuple is 1."""

    exps: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def of(mapping: Mapping[int, int]) -> "RefMonomial":
        items = tuple(sorted((v, e) for v, e in mapping.items() if e != 0))
        for v, e in items:
            if e < 0 or v < 0:
                raise ValueError(f"bad exponent entry ({v}, {e})")
        return RefMonomial(items)

    @cached_property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    @cached_property
    def sort_key(self) -> tuple:
        return (self.degree, tuple((-v, e) for v, e in self.exps))

    def mul(self, other: "RefMonomial") -> "RefMonomial":
        merged = dict(self.exps)
        for v, e in other.exps:
            merged[v] = merged.get(v, 0) + e
        return RefMonomial(tuple(sorted(merged.items())))

    def divide(self, other: "RefMonomial") -> "RefMonomial":
        merged = dict(self.exps)
        for v, e in other.exps:
            merged[v] = merged[v] - e
        return RefMonomial(tuple(sorted((v, e) for v, e in merged.items() if e != 0)))

    def without(self, var: int) -> "RefMonomial":
        return RefMonomial(tuple((v, e) for v, e in self.exps if v != var))

    def rename(self, mapping: Mapping[int, int]) -> "RefMonomial":
        return RefMonomial(tuple(sorted((mapping.get(v, v), e) for v, e in self.exps)))


REF_ONE = RefMonomial()


def reference_add_product(out: dict, f: Field, coeff: FieldValue, left: dict,
                          right: dict) -> None:
    add, mul, is_zero, one = f.add, f.mul, f.is_zero, f.one
    get = out.get
    scaled = coeff != one
    for ma, ca in left.items():
        if scaled:
            ca = mul(coeff, ca)
        unit = ca == one
        for mb, cb in right.items():
            mono = ma.mul(mb) if ma.exps else mb
            term = cb if unit else mul(ca, cb)
            prev = get(mono)
            if prev is None:
                out[mono] = term
            else:
                c = add(prev, term)
                if is_zero(c):
                    del out[mono]
                else:
                    out[mono] = c


def reference_terms(p: Polynomial) -> dict:
    """p's terms keyed by RefMonomial."""
    return {RefMonomial(tuple(m)): c for m, c in p.iter_terms()}


def reference_sorted(terms: dict) -> list:
    """Terms in descending order of the reference sort key."""
    return [(m, terms[m]) for m in sorted(terms, key=lambda m: m.sort_key, reverse=True)]


def reference_polynomial(f: Field, terms: dict) -> Polynomial:
    """A Polynomial holding exactly the given reference terms (field
    values, none zero), for formatting."""
    return Polynomial(f, {Monomial(m.exps): c for m, c in terms.items()})


def reference_mul(f: Field, a: dict, b: dict) -> dict:
    out: dict = {}
    reference_add_product(out, f, f.one, a, b)
    return out


def reference_pow(f: Field, a: dict, e: int) -> dict:
    if e < 0:
        raise ValueError("negative polynomial power")
    out = {REF_ONE: f.one}
    base = a
    while e:
        if e & 1:
            out = reference_mul(f, out, base)
        base = reference_mul(f, base, base) if e > 1 else base
        e >>= 1
    return out


def reference_compose(f: Field, p: dict, subst: Mapping[int, dict]) -> dict:
    for mono in p:
        for v, _ in mono.exps:
            if v not in subst:
                raise MissingAssignmentError(f"no substitution for variable id {v}")
    powers: dict[int, list[dict]] = {}

    def power(v: int, e: int) -> dict:
        cache = powers.get(v)
        if cache is None:
            cache = powers[v] = [subst[v]]
        while len(cache) < e:
            cache.append(reference_mul(f, cache[-1], subst[v]))
        return cache[e - 1]

    unit = {REF_ONE: f.one}
    out: dict = {}
    for mono, coeff in p.items():
        if not mono.exps:
            reference_add_product(out, f, coeff, unit, unit)
            continue
        v, e = mono.exps[-1]
        left = power(v, e - 1) if e > 1 else None
        for u, d in mono.exps[:-1]:
            left = power(u, d) if left is None else reference_mul(f, left, power(u, d))
        reference_add_product(out, f, coeff, unit if left is None else left, subst[v])
    return out


def reference_substitute(f: Field, p: dict, partial: Mapping[int, dict]) -> dict:
    subst = dict(partial)
    for mono in p:
        for v, _ in mono.exps:
            if v not in subst:
                subst[v] = {RefMonomial(((v, 1),)): f.one}
    return reference_compose(f, p, subst)

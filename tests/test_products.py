"""Differential tests: polynomial products in native ints on tuple monomial
keys against the Field-call reference in ``product_reference``, over QQ,
GF(7) and GF(2^61 - 1).  Terms, coefficient types, term order and canonical
text must all agree.  Also the ``Monomial`` API on the new keys."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annforge.annihilator import monomials_up_to
from annforge.errors import InputError
from annforge.fields import QQ, PrimeField
from annforge.poly import MONOMIAL_ONE, Monomial, Polynomial, format_polynomial

from conftest import power
from division_reference import divide
from product_reference import (
    RefMonomial,
    reference_compose,
    reference_mul,
    reference_polynomial,
    reference_pow,
    reference_sorted,
    reference_substitute,
    reference_terms,
)

GF7 = PrimeField(7)
FIELDS = [QQ, GF7, PrimeField(2**61 - 1)]
N_VARS = 4

# Denominators stay below 7 so that every coefficient exists in GF(7).
coeffs = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6)),
    st.integers(-(2**70) - 3, -(2**70) + 3),
    st.integers(2**70 - 3, 2**70 + 3),
    st.builds(Fraction, st.integers(2**70 - 3, 2**70 + 3), st.integers(1, 6)),
)
exps = st.lists(st.integers(0, 3), min_size=N_VARS, max_size=N_VARS)
term_lists = st.lists(st.tuples(coeffs, exps), max_size=6)


def build(field, term_list) -> Polynomial:
    acc = Polynomial.zero(field)
    for c, es in term_list:
        acc = acc + Polynomial.monomial(field, c, dict(enumerate(es)))
    return acc


def assert_same(field, poly: Polynomial, ref: dict) -> None:
    """Same terms with the same coefficient types, same order, same text."""
    got = {tuple(m): (c, type(c)) for m, c in poly.iter_terms()}
    assert got == {m.exps: (c, type(c)) for m, c in ref.items()}
    assert [tuple(m) for m, _ in poly.terms()] == [m.exps for m, _ in reference_sorted(ref)]
    assert format_polynomial(poly) == format_polynomial(reference_polynomial(field, ref))
    expected_type = Fraction if field is QQ else int
    assert all(type(c) is expected_type for _, c in poly.iter_terms())


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=100, deadline=None)
@given(term_lists, term_lists)
def test_mul_matches_reference(field, a, b):
    p, q = build(field, a), build(field, b)
    assert_same(field, p * q, reference_mul(field, reference_terms(p), reference_terms(q)))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coeffs, exps), max_size=3), st.integers(0, 4))
def test_pow_matches_reference(field, a, e):
    p = build(field, a)
    assert_same(field, power(p, e), reference_pow(field, reference_terms(p), e))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(term_lists, st.lists(st.lists(st.tuples(coeffs, exps), max_size=3),
                            min_size=N_VARS, max_size=N_VARS))
def test_compose_matches_reference(field, a, images):
    p = build(field, a)
    subst = {v: build(field, t) for v, t in enumerate(images)}
    ref = reference_compose(field, reference_terms(p),
                            {v: reference_terms(q) for v, q in subst.items()})
    assert_same(field, p.compose(subst), ref)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(term_lists, st.dictionaries(st.integers(0, N_VARS - 1),
                                   st.lists(st.tuples(coeffs, exps), max_size=3)))
def test_substitute_matches_reference(field, a, images):
    p = build(field, a)
    partial = {v: build(field, t) for v, t in images.items()}
    ref = reference_substitute(field, reference_terms(p),
                               {v: reference_terms(q) for v, q in partial.items()})
    assert_same(field, p.substitute(partial), ref)


def poly(field, terms: dict) -> Polynomial:
    """terms: {exponent mapping as a tuple of (var, exp): coefficient}."""
    return Polynomial(field, {Monomial.of(dict(k)): c for k, c in terms.items()})


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_products_in_corner_cases(field):
    x, y = ((0, 1),), ((1, 1),)
    one = ()
    cases = [
        # (x + y)(x - y): the cross terms cancel inside one product.
        (poly(field, {x: 1, y: 1}), poly(field, {x: 1, y: -1})),
        # Mixed denominators on both sides.
        (poly(field, {x: Fraction(1, 2), y: Fraction(1, 3)}),
         poly(field, {x: Fraction(1, 5), one: Fraction(-3, 4)})),
        # The constant monomial on either side, and constant times constant.
        (poly(field, {one: Fraction(2, 3)}), poly(field, {x: 1, one: 5})),
        (poly(field, {one: 7}), poly(field, {one: Fraction(1, 6)})),
        # Repeated variables: x*y times x^2*y and x*y.
        (poly(field, {((0, 1), (1, 1)): 3}), poly(field, {((0, 2), (1, 1)): 1, x + y: 2})),
        # Coefficients around 2^70.
        (poly(field, {x: 2**70 + 1, one: -(2**70)}),
         poly(field, {y: 2**70 - 1, x: Fraction(2**70, 3)})),
        # The zero polynomial.
        (poly(field, {x: 1}), Polynomial.zero(field)),
    ]
    for p, q in cases:
        assert_same(field, p * q, reference_mul(field, reference_terms(p), reference_terms(q)))
        assert_same(field, q * p, reference_mul(field, reference_terms(q), reference_terms(p)))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_compose_that_cancels_to_zero(field):
    # z1 - z2 with both sent to the same polynomial; z1^2 - z2*z3 with
    # z1 -> x*y, z2 -> x, z3 -> x*y^2.
    x = Polynomial.variable(field, 0)
    y = Polynomial.variable(field, 1)
    half = Polynomial.constant(field, Fraction(1, 2))
    for p, subst in [
        (poly(field, {((0, 1),): 1, ((1, 1),): -1}), {0: x * half + y, 1: half * x + y}),
        (poly(field, {((0, 2),): 1, ((1, 1), (2, 1)): -1}), {0: x * y, 1: x, 2: x * y * y}),
    ]:
        ref = reference_compose(field, reference_terms(p),
                                {v: reference_terms(q) for v, q in subst.items()})
        assert ref == {}
        assert_same(field, p.compose(subst), ref)


def test_binomial_cancels_mod_p():
    # (x + 1)^7 = x^7 + 1 over GF(7): the middle binomial coefficients vanish.
    p = Polynomial.variable(GF7, 0) + Polynomial.constant(GF7, 1)
    seventh = power(p, 7)
    assert_same(GF7, seventh, reference_pow(GF7, reference_terms(p), 7))
    assert seventh == Polynomial.monomial(GF7, 1, {0: 7}) + Polynomial.constant(GF7, 1)


# -- Monomial API on tuple keys ------------------------------------------------

monomial_maps = st.dictionaries(st.integers(0, 5), st.integers(0, 3), max_size=4)


@settings(max_examples=100, deadline=None)
@given(monomial_maps, monomial_maps, st.integers(0, 5))
def test_monomials_built_any_way_hash_and_compare_equal(a, b, var):
    ma, mb = Monomial.of(a), Monomial.of(b)
    product = ma.mul(mb)
    merged = {v: a.get(v, 0) + b.get(v, 0) for v in set(a) | set(b)}
    assert product == Monomial.of(merged) and hash(product) == hash(Monomial.of(merged))
    assert product == RefMonomial.of(a).mul(RefMonomial.of(b)).exps
    quotient = divide(product, mb)
    assert quotient == ma and hash(quotient) == hash(ma)
    dropped = ma.without(var)
    expected = Monomial.of({v: e for v, e in a.items() if v != var})
    assert dropped == expected and hash(dropped) == hash(expected)
    shift = {v: v + 10 for v in range(6)}
    renamed = ma.rename(shift).rename({v + 10: v for v in range(6)})
    assert renamed == ma and hash(renamed) == hash(ma)
    for m in (product, quotient, dropped, renamed):
        assert type(m) is Monomial
        assert m.degree == RefMonomial(tuple(m)).degree
        assert m.sort_key == RefMonomial(tuple(m)).sort_key
    assert ma.mul(MONOMIAL_ONE) == MONOMIAL_ONE.mul(ma) == ma


@pytest.mark.parametrize("n_vars,max_degree", [(1, 4), (2, 3), (3, 3), (4, 2), (5, 2)])
def test_monomials_up_to_keeps_the_reference_order(n_vars, max_degree):
    exponent_vectors = [es for es in itertools.product(range(max_degree + 1), repeat=n_vars)
                        if sum(es) <= max_degree]
    reference = sorted((RefMonomial.of(dict(enumerate(es))) for es in exponent_vectors),
                       key=lambda m: m.sort_key)
    assert [tuple(m) for m in monomials_up_to(n_vars, max_degree)] \
        == [m.exps for m in reference]


def test_negative_exponent_is_refused():
    with pytest.raises(InputError):
        Monomial.of({0: -1})
    with pytest.raises(InputError):
        Monomial.of({-1: 2})

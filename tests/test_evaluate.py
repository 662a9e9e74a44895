"""Differential tests: the int-native point evaluators against the
Field-call reference in ``evaluate_reference``, over QQ, GF(7) and
GF(2^61 - 1).  Value, type and error type must all agree."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from annforge.circuit import evaluate_circuit, random_circuit
from annforge.errors import AnnforgeError, MissingAssignmentError, ModularReductionError
from annforge.fields import QQ, PrimeField
from annforge.poly import Monomial, Polynomial

from evaluate_reference import reference_evaluate, reference_evaluate_circuit

FIELDS = [QQ, PrimeField(7), PrimeField(2**61 - 1)]
N_VARS = 4

# Denominators stay below 7 so that every coefficient exists in GF(7);
# points may carry a 7 and then have no value there.
coeffs = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
exps = st.lists(st.integers(0, 4), min_size=N_VARS, max_size=N_VARS)
term_lists = st.lists(st.tuples(coeffs, exps), max_size=8)
values = st.one_of(
    st.just(0),
    st.integers(-50, 50),
    st.integers(-(2**70), 2**70),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
)


def build(field, term_list) -> Polynomial:
    acc = Polynomial.zero(field)
    for c, es in term_list:
        acc = acc + Polynomial.monomial(field, c, dict(enumerate(es)))
    return acc


def outcome(fn, *args):
    """The value and its type, or the type of the AnnforgeError raised."""
    try:
        value = fn(*args)
    except AnnforgeError as exc:
        return type(exc)
    return value, type(value)


TERMS = [(Fraction(1, 2), [1, 0, 2, 0]), (Fraction(-3), [0, 1, 0, 1]),
         (Fraction(5, 6), [0, 0, 0, 0]), (Fraction(2, 3), [2, 1, 0, 3])]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=150, deadline=None)
@given(term_lists, st.lists(values, max_size=N_VARS + 1))
@example(TERMS, [2, -3, 0, 5])  # integers
@example(TERMS, [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(3, 5)])  # fractions
@example(TERMS, [2, Fraction(-2, 3), 0, Fraction(5, 6)])  # mixed
def test_evaluate_matches_reference(field, term_list, point):
    p = build(field, term_list)
    assert outcome(p.evaluate, point) == outcome(reference_evaluate, p, point)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 10),
    st.integers(0, 10**6),
    st.lists(coeffs, max_size=3),
    st.lists(values, min_size=1, max_size=4),
)
def test_evaluate_circuit_matches_reference(field, n_inputs, size, seed, pool, point):
    c = random_circuit(n_inputs, size, seed, const_pool=tuple(pool), field=field)
    assert outcome(evaluate_circuit, c, point) == outcome(reference_evaluate_circuit, c, point)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_short_point_raises_missing_assignment(field):
    p = build(field, [(Fraction(1, 2), [1, 0, 0, 2])])
    with pytest.raises(MissingAssignmentError):
        p.evaluate([1, 2, 3])
    with pytest.raises(MissingAssignmentError):
        reference_evaluate(p, [1, 2, 3])


def test_point_without_value_mod_7_raises_modular_reduction():
    gf7 = PrimeField(7)
    p = build(gf7, [(Fraction(3), [2, 1, 0, 0])])
    c = random_circuit(2, 4, 1, field=gf7)
    point = [Fraction(1, 7), 2]
    for fn, args in [(p.evaluate, (point,)), (reference_evaluate, (p, point)),
                     (evaluate_circuit, (c, point)), (reference_evaluate_circuit, (c, point))]:
        with pytest.raises(ModularReductionError):
            fn(*args)


# -- the cached evaluation plan ------------------------------------------------

integers = st.one_of(st.integers(-50, 50), st.integers(-(2**70), 2**70))
fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(2, 12)).filter(
    lambda x: x.denominator != 1)
points = st.lists(values, max_size=N_VARS + 1)
small_term_lists = st.lists(
    st.tuples(coeffs, st.lists(st.integers(0, 2), min_size=N_VARS, max_size=N_VARS)),
    max_size=4,
)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(term_lists, st.lists(points, min_size=20, max_size=20))
def test_one_plan_serves_many_points(field, term_list, point_list):
    p = build(field, term_list)
    for point in point_list:
        assert outcome(p.evaluate, point) == outcome(reference_evaluate, p, point)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(small_term_lists, small_term_lists, coeffs,
       st.lists(small_term_lists, min_size=N_VARS, max_size=N_VARS),
       st.integers(0, N_VARS - 1), st.lists(values, min_size=N_VARS, max_size=N_VARS))
def test_derived_polynomial_gets_its_own_plan(field, terms, other_terms, c, subst_terms,
                                              var, point):
    p = build(field, terms)
    q = build(field, other_terms)
    outcome(p.evaluate, point)  # builds p's plan before anything is derived from it
    subst = {v: build(field, t) for v, t in enumerate(subst_terms)}
    derived = [p + q, p - q, p.scale(c), p * q, p.compose(subst),
               p.partial_derivative(var), -p]
    for r in derived:
        assert outcome(r.evaluate, point) == outcome(reference_evaluate, r, point)
    assert outcome(p.evaluate, point) == outcome(reference_evaluate, p, point)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_zero_polynomial_evaluates_to_zero(field):
    zero = Polynomial.zero(field)
    for point in ([], [1], [Fraction(1, 3), 2, 3], [Fraction(1, 7)] * 5):
        assert outcome(zero.evaluate, point) == (field.zero, type(field.zero))
        assert outcome(zero.evaluate, point) == outcome(reference_evaluate, zero, point)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("kind", ["integers", "fractions", "mixed"])
@settings(max_examples=60, deadline=None)
@given(term_lists, st.data())
def test_integer_fraction_and_mixed_points(field, kind, term_list, data):
    p = build(field, term_list)
    entry = {"integers": integers, "fractions": fractions,
             "mixed": st.one_of(integers, fractions)}[kind]
    point = data.draw(st.lists(entry, min_size=N_VARS, max_size=N_VARS))
    for _ in range(2):  # the second call runs on the cached plan
        assert outcome(p.evaluate, point) == outcome(reference_evaluate, p, point)


@pytest.mark.parametrize("short_first", [True, False], ids=["short_first", "mod7_first"])
def test_short_point_and_value_without_image_raise_in_term_order(short_first):
    # x4 is past the end of the point and x1 = 1/7 has no value mod 7; the
    # error is the one a term-order scan meets first.
    gf7 = PrimeField(7)
    reads_x4 = Monomial.of({3: 1})
    reads_x1 = Monomial.of({0: 2})
    order = [reads_x4, reads_x1] if short_first else [reads_x1, reads_x4]
    p = Polynomial(gf7, {m: 1 for m in order})
    point = [Fraction(1, 7), 2, 3]
    expected = MissingAssignmentError if short_first else ModularReductionError
    for _ in range(2):
        assert outcome(p.evaluate, point) == expected
        assert outcome(reference_evaluate, p, point) == expected

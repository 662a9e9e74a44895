"""Differential tests: the int-native point evaluators against the
Field-call reference in ``evaluate_reference``, over QQ, GF(7) and
GF(2^61 - 1).  Value, type and error type must all agree.  Points hold
ints, Fractions, bools and numeric strings, each as Field.normalize reads
it, and exponents reach 40, so that terms share powers of a variable."""

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
# points may carry a 7 and then have no value there.  Exponents are mostly
# small, and otherwise one of a few up to 40, so that terms share a power.
coeffs = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
exps = st.lists(st.one_of(st.integers(0, 4), st.sampled_from([7, 40])),
                min_size=N_VARS, max_size=N_VARS)
term_lists = st.lists(st.tuples(coeffs, exps), max_size=8)
values = st.one_of(
    st.just(0),
    st.integers(-50, 50),
    st.integers(-(2**70), 2**70),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    st.booleans(),
    st.integers(-50, 50).map(str),  # read by every field, as int("-3") or Fraction("-3")
)


def build(field, term_list) -> Polynomial:
    acc = Polynomial.zero(field)
    for c, es in term_list:
        acc = acc + Polynomial.monomial(field, c, dict(enumerate(es)))
    return acc


def outcome(fn, *args):
    """The value and its type, or the type of the AnnforgeError raised, or
    ValueError for a string that a prime field cannot read ("1/2")."""
    try:
        value = fn(*args)
    except (AnnforgeError, ValueError) as exc:
        return type(exc)
    return value, type(value)


TERMS = [(Fraction(1, 2), [1, 0, 2, 0]), (Fraction(-3), [0, 1, 0, 1]),
         (Fraction(5, 6), [0, 0, 0, 0]), (Fraction(2, 3), [2, 1, 0, 3])]
# x1^40, x3^2 and x4^40 each stand in more than one term.
SHARED_POWERS = [(Fraction(1, 2), [40, 0, 2, 0]), (Fraction(-3), [40, 1, 0, 0]),
                 (Fraction(5, 6), [0, 0, 2, 40]), (Fraction(2, 3), [1, 40, 2, 40])]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=150, deadline=None)
@given(term_lists, st.lists(values, max_size=N_VARS + 1))
@example(TERMS, [2, -3, 0, 5])  # integers
@example(TERMS, [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(3, 5)])  # fractions
@example(TERMS, [2, Fraction(-2, 3), 0, Fraction(5, 6)])  # mixed
@example(SHARED_POWERS, [2, Fraction(-2, 3), 3, Fraction(5, 6)])
@example(SHARED_POWERS, [2**61, 2**61 - 2, Fraction(3, 2), -5])
@example(TERMS, [True, False, "3", " -4 "])  # bools and integer strings
@example(TERMS, ["1/2", 2, "0.25", 3])  # over QQ only; a prime field refuses "1/2"
# x2 before x1 in term order: over GF(7) the reference meets 1/7 first.
@example([(Fraction(1), [0, 1, 0, 0]), (Fraction(1), [1, 0, 0, 0])], ["1/2", Fraction(1, 7)])
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
    st.lists(st.lists(values, min_size=1, max_size=4), min_size=1, max_size=12),
)
@example(2, 8, 5, [Fraction(1, 2), Fraction(-5, 3), 4], [[3, Fraction(2, 5)], [True, "7"]])
def test_evaluate_circuit_matches_reference(field, n_inputs, size, seed, pool, point_list):
    # One circuit, and with it one cached plan, at many points: as drawn and
    # normalized into the field, the form pit._random_points gives.
    c = random_circuit(n_inputs, size, seed, const_pool=tuple(pool), field=field)
    for point in point_list:
        assert outcome(evaluate_circuit, c, point) == outcome(reference_evaluate_circuit, c, point)
        try:
            normalized = tuple(field.normalize(x) for x in point)
        except (AnnforgeError, ValueError):
            continue
        assert outcome(evaluate_circuit, c, normalized) == \
            outcome(reference_evaluate_circuit, c, normalized)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(values, st.just("1/2"), st.just("0.25")), max_size=6))
def test_read_point_matches_normalize(field, point):
    # Value by value: the same error class as normalize, or its value, read
    # as an int where it is integral over QQ.
    for v, x in enumerate(point):
        read, expected = outcome(field.read_point, point, [v]), outcome(field.normalize, x)
        if type(expected) is not tuple:
            assert read == expected
            continue
        value = expected[0]
        if not field.characteristic and value.denominator == 1:
            value = value.numerator
        assert read == ([value], list) and type(read[0][0]) is type(value)
    ids = range(len(point))
    if all(type(outcome(field.normalize, x)) is tuple for x in point):
        assert field.read_point(point, ids) == [field.normalize(x) for x in point]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_short_point_raises_missing_assignment(field):
    p = build(field, [(Fraction(1, 2), [1, 0, 0, 2])])
    with pytest.raises(MissingAssignmentError):
        p.evaluate([1, 2, 3])
    with pytest.raises(MissingAssignmentError):
        reference_evaluate(p, [1, 2, 3])
    # x4 comes first in term order, then x2*x3: the error names x4's id, as
    # the reference's does, though x2 and x3 are past the end too.
    q = Polynomial(field, {Monomial.of({3: 1}): 1, Monomial.of({1: 1, 2: 1}): 1})
    for fn in (q.evaluate, lambda point: reference_evaluate(q, point)):
        with pytest.raises(MissingAssignmentError, match="^no value for variable id 3$"):
            fn([1])


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

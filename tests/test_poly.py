import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annforge.errors import BudgetExceededError, InputError, MissingAssignmentError, ParseError
from annforge.fields import QQ, PrimeField
from annforge.poly import (
    Monomial,
    Namespace,
    Polynomial,
    format_polynomial,
    parse_polynomial,
)

from conftest import P, power
from division_reference import exact_divide

XYZ = Namespace(["x1", "x2", "x3"])


def poly(text: str) -> Polynomial:
    return parse_polynomial(text, QQ, XYZ)


# -- hypothesis strategy for small rational polynomials ------------------------

coeffs = st.integers(min_value=-9, max_value=9).map(Fraction)
exponents = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
)
terms = st.lists(st.tuples(coeffs, exponents), min_size=0, max_size=5)


def build(term_list) -> Polynomial:
    acc = Polynomial.zero(QQ)
    for c, (e1, e2, e3) in term_list:
        acc = acc + Polynomial.monomial(QQ, c, {0: e1, 1: e2, 2: e3})
    return acc


polynomials = terms.map(build)


# -- basic arithmetic -----------------------------------------------------------


def test_add_cancellation():
    assert poly("x1 + 1") + poly("-x1") == poly("1")


def test_add_identity():
    p = poly("x1^2 - 2*x2")
    assert Polynomial.zero(QQ) + p == p


def test_add_disjoint_supports():
    assert poly("x1^2") + poly("x2^2") == poly("x1^2 + x2^2")


def test_mul_difference_of_squares():
    assert poly("x1 - x2") * poly("x1 + x2") == poly("x1^2 - x2^2")


def test_mul_by_zero():
    assert (poly("x1^3 + x2") * Polynomial.zero(QQ)).is_zero()


def test_square_binomial():
    assert poly("x1 + 1") * poly("x1 + 1") == poly("x1^2 + 2*x1 + 1")


def test_field_mismatch_raises():
    from annforge.errors import FieldMismatchError

    gf = PrimeField(13)
    with pytest.raises(FieldMismatchError):
        poly("x1") + parse_polynomial("x1", gf, XYZ)


# -- evaluation -----------------------------------------------------------------


def test_evaluate_difference_of_squares():
    assert poly("x1^2 - x2^2").evaluate([3, 2]) == 5


def test_evaluate_at_zero_gives_constant_term():
    p = poly("x1^2*x3 - 4*x2 + 7/2")
    assert p.evaluate([0, 0, 0]) == Fraction(7, 2)
    assert p.constant_term() == Fraction(7, 2)


def test_evaluate_det2_at_identity():
    ns = Namespace(["x11", "x12", "x21", "x22"])
    det = parse_polynomial("x11*x22 - x12*x21", QQ, ns)
    assert det.evaluate([1, 0, 0, 1]) == 1


def test_evaluate_missing_assignment():
    with pytest.raises(MissingAssignmentError):
        poly("x1 + x3").evaluate([1])


def test_repr_past_the_digit_limit_shows_the_size():
    x1 = Monomial.of({0: 1})
    assert repr(poly("x1^2 - 1/2")) == "Polynomial(v1^2 - 1/2)"
    assert repr(Polynomial(QQ, {x1: 10**4301})) == "Polynomial(<terms: 1, degree: 1>)"
    big = Polynomial(QQ, {Monomial.of({0: 10**4301}): 1, Monomial(): 1})
    assert repr(big) == "Polynomial(<terms: 2, degree: (a 14288-bit integer)>)"


# -- composition ------------------------------------------------------------------


def test_compose_shift():
    p = poly("x1^2 - x2^2")
    subst = {0: poly("x3 + 1"), 1: poly("x2")}
    assert p.compose(subst) == poly("x3^2 + 2*x3 + 1 - x2^2")


def test_compose_identity():
    p = poly("x1^3 - x2*x3 + 5")
    subst = {v: Polynomial.variable(QQ, v) for v in range(3)}
    assert p.compose(subst) == p


def test_compose_uncovered_variable():
    with pytest.raises(MissingAssignmentError):
        poly("x1 + x2").compose({0: poly("x1")})


@pytest.mark.parametrize("text, refused", [
    ("x1^10", "variable id 0: degree 10 exceeds budget 10"),  # x1 is the term's last factor
    ("x1^10*x2", "variable id 0: degree 10 exceeds budget 10"),
    ("x1^9*x2 + x1^10", "variable id 0: degree 10 exceeds budget 10"),  # x1^9 already built
    ("x1 + x2^12", "variable id 1: degree 12 exceeds budget 10"),
])
def test_compose_refuses_a_degree_past_the_term_budget(monkeypatch, text, refused):
    monkeypatch.setenv("AF_TERM_BUDGET", "10")
    subst = {0: poly("x3 + 1"), 1: poly("x3")}
    assert poly("x1^9*x2 + x2^9").compose(subst) == power(subst[0], 9) * subst[1] + power(subst[1], 9)
    with pytest.raises(BudgetExceededError, match=refused):
        poly(text).compose(subst)


@settings(max_examples=60)
@given(polynomials, polynomials)
def test_compose_is_ring_homomorphism(a, b):
    subst = {0: poly("x2 + 1"), 1: poly("x1*x3"), 2: poly("x3 - 2")}
    assert (a + b).compose(subst) == a.compose(subst) + b.compose(subst)
    assert (a * b).compose(subst) == a.compose(subst) * b.compose(subst)


@settings(max_examples=40)
@given(polynomials, st.integers(min_value=0, max_value=500))
def test_evaluate_commutes_with_compose(p, seed):
    rng = random.Random(seed)
    subst = {0: poly("x2 + 1"), 1: poly("x1*x3"), 2: poly("x3 - 2")}
    point = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
    direct = p.compose(subst).evaluate(point)
    via_values = p.evaluate([subst[v].evaluate(point) for v in range(3)])
    assert direct == via_values


# -- ring axioms -------------------------------------------------------------------


@settings(max_examples=60)
@given(polynomials, polynomials, polynomials)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()


# -- calculus ----------------------------------------------------------------------


def test_partial_derivative_basic():
    assert poly("x1^2 - x2^2").partial_derivative(0) == poly("2*x1")
    assert poly("7").partial_derivative(0).is_zero()


@settings(max_examples=60)
@given(polynomials, polynomials)
def test_product_rule(f, g):
    # Oracle: expand the product first, then differentiate the expansion.
    lhs = (f * g).partial_derivative(0)
    rhs = f * g.partial_derivative(0) + g * f.partial_derivative(0)
    assert lhs == rhs


# -- single-variable views -----------------------------------------------------------


def test_coefficient_in_basic():
    p = poly("x3^2*x1 + x1")  # (w^2 + 1) * x1 with w = x3
    assert p.coefficients_in(2) == [poly("x1"), Polynomial.zero(QQ), poly("x1")]


@settings(max_examples=60)
@given(polynomials)
def test_coefficient_reconstruction(p):
    # Oracle: sum_k coefficients_in(p, v)[k] * v^k rebuilds p.
    for var in range(3):
        acc = Polynomial.zero(QQ)
        for k, q in enumerate(p.coefficients_in(var)):
            acc = acc + q * Polynomial.monomial(QQ, 1, {var: k})
        assert acc == p


def test_coefficients_in_dense_view():
    p = poly("x1^2*x2 + 3*x1 - 4")
    assert p.coefficients_in(0) == [poly("-4"), poly("3"), poly("x2")]


# -- division -----------------------------------------------------------------------


def test_exact_divide_difference_of_squares():
    q = exact_divide(poly("x1^2 - x2^2"), poly("x1 - x2"))
    assert q == poly("x1 + x2")


def test_exact_divide_not_divisible():
    assert exact_divide(poly("x1"), poly("x2")) is None
    assert exact_divide(poly("x1^2 + 1"), poly("x1 + 1")) is None


def test_exact_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        exact_divide(poly("x1"), Polynomial.zero(QQ))


@settings(max_examples=60)
@given(polynomials, polynomials)
def test_exact_divide_roundtrip(h, r):
    # Oracle: construct the product, then divide it back out.
    if h.is_zero():
        return
    assert exact_divide(h * r, h) == r


# -- canonical text ------------------------------------------------------------------


def test_parse_examples():
    assert poly("x1^2-x2^2+1/2*x3") == poly("  x1^2 - x2^2 + 1/2 * x3 ")
    assert poly("-x1") == -poly("x1")
    assert poly("0").is_zero()
    assert poly("2*x1*x1") == poly("2*x1^2")


def test_parse_errors():
    # Every term after the first needs a sign, and factors need "*".
    for bad in ["", "x9", "x1 +", "* x1", "x1^", "x1 ^ x2", "1..2", "3x1", "x1 x2", "2 3"]:
        with pytest.raises(ParseError):
            poly(bad)


def test_format_zero():
    assert format_polynomial(Polynomial.zero(QQ), XYZ) == "0"


@settings(max_examples=80)
@given(polynomials)
def test_serialize_parse_fixed_point(p):
    text = format_polynomial(p, XYZ)
    reparsed = parse_polynomial(text, QQ, XYZ)
    assert reparsed == p
    assert format_polynomial(reparsed, XYZ) == text


def test_graded_lex_term_order():
    # Degree first, then lexicographic with lower variable index dominant.
    p = poly("x3 + x1 + x2^2")
    assert format_polynomial(p, XYZ) == "x2^2 + x1 + x3"


def test_prime_field_text_round_trip():
    gf = PrimeField(13)
    p = parse_polynomial("5*x1^2 + 1/2*x2", gf, XYZ)
    text = format_polynomial(p, XYZ)
    assert parse_polynomial(text, gf, XYZ) == p


# -- monomials and namespaces ----------------------------------------------------------


def test_monomial_canonical_and_degree():
    m = Monomial.of({2: 1, 0: 2})
    assert m == ((0, 2), (2, 1))
    assert m.degree == 3
    assert Monomial.of({}).degree == 0
    with pytest.raises(InputError):
        Monomial.of({0: -1})


def test_namespace_inferred_natural_sort():
    ns = Namespace.inferred(["z10 + z2", "z1*w"])
    assert ns.names == ["w", "z1", "z2", "z10"]


def test_namespace_duplicate_rejected():
    with pytest.raises(ParseError):
        Namespace(["x1", "x1"])


def test_rename_variables():
    p = poly("x1^2 - x2")
    q = p.rename_variables({0: 2, 1: 0})
    assert q == poly("x3^2 - x1")


# -- the stored integer form ------------------------------------------------------

GF7 = PrimeField(7)
#: Field values over QQ and GF(7): Fractions of several denominators (none
#: divisible by 7), ints, and zero.
values = st.one_of(
    st.integers(min_value=-13, max_value=13),
    st.builds(Fraction, st.integers(min_value=-13, max_value=13),
              st.integers(min_value=1, max_value=13).filter(lambda d: d % 7)),
)
units = st.builds(Fraction, st.integers(min_value=-13, max_value=13).filter(lambda n: n % 7),
                  st.integers(min_value=1, max_value=13).filter(lambda d: d % 7))
raw_terms = st.lists(st.tuples(exponents, values), max_size=5)


def from_raw(field, raw) -> Polynomial:
    """The constructor, given raw field values (zeros too)."""
    return Polynomial(field, {Monomial.of({0: e1, 1: e2, 2: e3}): c for (e1, e2, e3), c in raw})


def assert_canonical(p: Polynomial) -> None:
    terms, den = p.integer_terms()
    numerators = [n for _, n in terms]
    assert den >= 1
    assert gcd(den, *numerators) == 1
    assert 0 not in numerators
    if p.field.characteristic:
        assert den == 1
        assert all(0 < n < p.field.characteristic for n in numerators)


@pytest.mark.parametrize("field", [QQ, GF7], ids=["QQ", "GF7"])
@settings(max_examples=150, deadline=None)
@given(raw_p=raw_terms, raw_q=raw_terms, c=units)
def test_every_route_keeps_the_stored_form_canonical(field, raw_p, raw_q, c):
    p, q = from_raw(field, raw_p), from_raw(field, raw_q)
    routes = [
        p, q, parse_polynomial(format_polynomial(p, XYZ), field, XYZ),
        p + q, p - q, -p, p * q, p.scale(c),
        p.compose({0: q, 1: Polynomial.variable(field, 2), 2: q.scale(c)}),
        p.substitute({1: q}), p.partial_derivative(0), *p.coefficients_in(1),
        p.rename_variables({0: 2, 2: 0}),
    ]
    for route in routes:
        assert_canonical(route)
    assert p.scale(c).scale(1 / c) == p
    assert (p + q) - q == p


def test_variable_and_constant_build_the_stored_form_without_the_constructor(monkeypatch):
    cases = [(field, value) for field in (QQ, GF7)
             for value in (0, 1, -1, 9, Fraction(1, 2), Fraction(-2, 3))]
    expected = [Polynomial(field, {Monomial(): value}) for field, value in cases]
    x3 = [Polynomial(field, {Monomial.of({2: 1}): 1}) for field in (QQ, GF7)]

    def refuse(*args, **kwargs):
        raise AssertionError("Polynomial.__init__ ran")

    monkeypatch.setattr(Polynomial, "__init__", refuse)
    built = [Polynomial.constant(field, value) for field, value in cases]
    assert built == expected
    assert [Polynomial.variable(field, 2) for field in (QQ, GF7)] == x3
    assert Polynomial.zero(QQ).is_zero()
    for p in built:
        assert_canonical(p)
    with pytest.raises(InputError, match=r"bad exponent entry \(-1, 1\)"):
        Polynomial.variable(QQ, -1)

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from annforge.errors import FieldMismatchError, InputError, ParseError
from annforge.fields import QQ, PrimeField, check_same_field, field_from_spec, is_prime


def test_rational_normalize_reduces():
    assert QQ.normalize(Fraction(4, 6)) == Fraction(2, 3)
    assert QQ.normalize(5) == Fraction(5, 1)
    # Fraction keeps denominators positive by construction.
    v = QQ.normalize(Fraction(3, -6))
    assert v.denominator > 0 and v == Fraction(-1, 2)


def test_rational_parse_and_format():
    assert QQ.parse_value("3/4") == Fraction(3, 4)
    assert QQ.parse_value("-7") == Fraction(-7)
    assert QQ.format_value(Fraction(-1, 2)) == "-1/2"
    assert QQ.format_value(Fraction(4)) == "4"
    with pytest.raises(ParseError):
        QQ.parse_value("1/0")
    with pytest.raises(ParseError):
        QQ.parse_value("abc")


def test_prime_field_requires_prime():
    with pytest.raises(InputError):
        PrimeField(10)
    with pytest.raises(InputError):
        PrimeField(1)
    PrimeField(2)
    PrimeField(2**61 - 1)


def test_is_prime_small_cases():
    primes = {2, 3, 5, 7, 11, 13, 97, 101}
    for n in range(2, 110):
        assert is_prime(n) == (n in primes or all(n % d for d in range(2, n)))


#: Least strong pseudoprimes to the first 12 and 13 prime bases (2..37, 2..41).
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_past_twelve_bases():
    # PSI_12 is composite but passes Miller-Rabin to every base 2..37.
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_prime(PSI_12)
    with pytest.raises(InputError, match="not prime"):
        field_from_spec(f"prime:{PSI_12}")
    assert is_prime(2**61 - 1)
    assert field_from_spec(f"prime:{2**61 - 1}") == PrimeField(2**61 - 1)


def test_is_prime_refuses_moduli_at_the_bound():
    for n in (PSI_13, PSI_13 + 2, 2**89 - 1):
        with pytest.raises(InputError, match=str(PSI_13)):
            is_prime(n)
        with pytest.raises(InputError, match=str(PSI_13)):
            PrimeField(n)


def test_prime_field_arithmetic():
    gf = PrimeField(13)
    assert gf.add(7, 9) == 3
    assert gf.mul(5, 8) == 1
    assert gf.inv(5) == 8
    assert gf.normalize(-1) == 12
    assert gf.normalize(Fraction(1, 2)) == gf.inv(2)
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)
    with pytest.raises(ZeroDivisionError):
        gf.normalize(Fraction(1, 13))


def test_field_equality_and_mismatch():
    assert QQ == field_from_spec("rational")
    assert PrimeField(13) == field_from_spec("prime:13")
    assert PrimeField(13) != PrimeField(17)
    with pytest.raises(FieldMismatchError):
        check_same_field(QQ, PrimeField(13))


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert QQ.add(a, b) == QQ.add(b, a)
    assert QQ.mul(QQ.add(a, b), c) == QQ.add(QQ.mul(a, c), QQ.mul(b, c))
    assert QQ.add(a, QQ.neg(a)) == 0


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
def test_prime_field_axioms(a, b):
    gf = PrimeField(2**61 - 1)
    x, y = gf.normalize(a), gf.normalize(b)
    assert gf.add(x, y) == gf.add(y, x)
    assert gf.sub(gf.add(x, y), y) == x
    if not gf.is_zero(y):
        assert gf.mul(gf.mul(x, gf.inv(y)), y) == x

"""Exact coefficient fields: the rationals and prime fields F_p.

Field elements are plain Python values (``Fraction`` for the rationals,
``int`` residues in [0, p) for F_p); the Field object owns the arithmetic.
This keeps coefficients lightweight and hashable while guaranteeing
exactness: there is no floating point anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Union

from . import config
from .errors import FieldMismatchError, InputError, ModularReductionError, ParseError

FieldValue = Union[Fraction, int]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: The least strong pseudoprime to all of _MR_BASES: below it the test is exact.
_MR_BOUND = 3_317_044_064_679_887_385_961_981


@cache
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < _MR_BOUND; larger n raise InputError.
    Cached: every PrimeField built tests its modulus.  A refused n raises
    again on the next call, since raised exceptions are not cached."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise InputError(f"{config.int_text(n)} >= {_MR_BOUND}, the bound of the exact prime test")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Interface shared by RationalField and PrimeField, which both define
    normalize, read_point, add, sub, mul, neg, inv, is_zero, format_value
    and to_json.

    ``read_point(point, ids)`` gives the values of ``point`` at ``ids`` as
    exact integers: residues over F_p; over QQ an int where the value is
    integral, else a Fraction.  It reads what normalize reads and raises
    what normalize raises."""

    characteristic: int
    #: Normalized constants (shared; field values are immutable).
    zero: FieldValue
    one: FieldValue

    def parse_value(self, text: str) -> FieldValue:
        """Parse ``a`` or ``a/b``, integers as config.read_int reads them, b >= 1."""
        text = text.strip()
        num, slash, den = text.partition("/")
        a = config.read_int(num, "a field constant")
        b = config.read_int(den, "a field constant") if slash else 1
        if a is not None and b is not None and b >= 1:
            try:
                return self.normalize(Fraction(a, b) if slash else a)
            except ModularReductionError:  # p divides b
                pass
        raise ParseError(f"invalid field constant {config.quote(text)}")


class RationalField(Field):
    """The field of rational numbers; elements are reduced Fractions."""

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def normalize(self, value) -> Fraction:
        return value if type(value) is Fraction else Fraction(value)

    def read_point(self, point, ids) -> list:
        out = []
        for v in ids:
            x = point[v]
            if type(x) is not int:
                if type(x) is not Fraction:
                    x = Fraction(x)
                n, d = x.as_integer_ratio()
                if d == 1:
                    x = n
            out.append(x)
        return out

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def format_value(self, a) -> str:
        a = self.normalize(a)
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def to_json(self) -> dict:
        return {"type": "rational"}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    """F_p for prime p; elements are int residues in [0, p)."""

    zero = 0
    one = 1

    def __init__(self, p: int):
        if not is_prime(p):
            raise InputError(f"modulus {config.int_text(p)} is not prime")
        self.p = p
        self.characteristic = p

    def normalize(self, value) -> int:
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ModularReductionError(
                    f"coefficient {config.int_text(value.numerator)}/"
                    f"{config.int_text(value.denominator)} has no value mod p={self.p}: "
                    "p divides its denominator"
                )
            return value.numerator * pow(den, -1, self.p) % self.p
        return int(value) % self.p

    def read_point(self, point, ids) -> list:
        return [x % self.p if type(x := point[v]) is int else self.normalize(x) for v in ids]

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def format_value(self, a) -> str:
        return str(a % self.p)

    def to_json(self) -> dict:
        return {"type": "prime", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"GF({self.p})"


#: Shared default field instance.
QQ = RationalField()


def check_same_field(a: Field, b: Field) -> None:
    if a != b:
        raise FieldMismatchError(f"field mismatch: {config.quote(a)} vs {config.quote(b)}")


def field_from_spec(spec: str) -> Field:
    """Parse "rational" or "prime:<p>" (CLI --field syntax), naming --field."""
    if spec == "rational":
        return QQ
    kind, _, p = spec.partition(":")
    modulus = config.read_int(p, "the --field modulus") if kind == "prime" else None
    if modulus is None:
        raise ParseError(f"unknown field spec {config.quote(spec)}")
    try:
        return PrimeField(modulus)
    except InputError as exc:
        raise InputError(f"--field {config.quote(spec, str)}: {exc}") from exc

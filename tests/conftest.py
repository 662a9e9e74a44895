"""Shared fixtures: the worked x1^2 - x2^2 circuit and parsing shorthands."""

from __future__ import annotations

import random

import pytest

from annforge import QQ, local_encode, parse_circuit, principal_generator
from annforge.poly import Namespace, Polynomial, parse_polynomial

FIG_TEXT = """circuit squares_diff
inputs x1 x2
g1 = mul x2 -1
g2 = add x1 x2
g3 = add x1 g1
g4 = mul g2 g3
output g4
"""

SINGLE_ADD_TEXT = """circuit one_add
inputs x1 x2
g1 = add x1 x2
output g1
"""


def P(text: str, names: list[str] | Namespace, field=QQ):
    """Parse a polynomial against an explicit name list."""
    ns = names if isinstance(names, Namespace) else Namespace(names)
    return parse_polynomial(text, field, ns)


def power(p: Polynomial, e: int) -> Polynomial:
    """p^e as a product of e factors p."""
    out = Polynomial.constant(p.field, 1)
    for _ in range(e):
        out = out * p
    return out


def seed_ns(n: int, s: int) -> Namespace:
    """x1..xn, y1..ys: the seed variables of a local encoding."""
    return Namespace([f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, s + 1)])


def Z(text: str, m: int, field=QQ):
    """Parse a polynomial over z1..zm."""
    return parse_polynomial(text, field, Namespace.outputs(m))


@pytest.fixture
def fig_circuit():
    return parse_circuit(FIG_TEXT)


@pytest.fixture
def fig_encoding(fig_circuit):
    return local_encode(fig_circuit, [0, 0], 0)


@pytest.fixture
def fig_cert(fig_encoding):
    return principal_generator(fig_encoding)


@pytest.fixture
def single_add_circuit():
    return parse_circuit(SINGLE_ADD_TEXT)


def random_point(rng: random.Random, n: int, bound: int = 7) -> list[int]:
    return [rng.randint(-bound, bound) for _ in range(n)]

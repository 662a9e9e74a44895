"""The sparse, modular-first kernel search against the dense reference and
against the former Polynomial-product search (``kernel_reference``)."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annforge import annihilator, config
from annforge.annihilator import annihilator_basis_search, monomials_up_to
from annforge.circuit import parse_circuit
from annforge.encoding import PolynomialMap, local_encode, pad, parallel_compose
from annforge.fields import QQ, PrimeField
from annforge.instances import kayal_map
from annforge.linalg import kernel_basis, rational_reconstruction, row_reduce
from annforge.poly import Monomial, Polynomial, format_polynomial

import kernel_reference
from conftest import FIG_TEXT
from dense_reference import (
    _kernel_basis,
    _rank_mod_p,
    reference_basis_search,
    reference_monomials_up_to,
)

GF = PrimeField(config.DEFAULT_PRIME)
FIELDS = [QQ, GF, PrimeField(7)]


def scaled(pmap: PolynomialMap, factor) -> PolynomialMap:
    return PolynomialMap(
        outputs=tuple(q.scale(factor) for q in pmap.outputs),
        seed_len=pmap.seed_len,
        seed_names=pmap.seed_names,
    )


def spy_kernel(monkeypatch) -> list:
    """Record the field of every kernel_basis call made by the search."""
    fields = []

    def recording(rows, n_cols, field):
        fields.append(field)
        return kernel_basis(rows, n_cols, field)

    monkeypatch.setattr(annihilator, "kernel_basis", recording)
    return fields


# -- random small maps ------------------------------------------------------------


@st.composite
def small_maps(draw):
    field = draw(st.sampled_from(FIELDS))
    seed_len = draw(st.integers(1, 2))
    out_len = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 3 if out_len < 3 else 2))
    outputs = []
    for _ in range(out_len):
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            exps = {v: draw(st.integers(0, 2)) for v in range(seed_len)}
            coeff = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
            terms[Monomial.of(exps)] = coeff
        outputs.append(Polynomial(field, terms))
    names = tuple(f"x{i}" for i in range(1, seed_len + 1))
    return PolynomialMap(outputs=tuple(outputs), seed_len=seed_len, seed_names=names), degree


@settings(max_examples=120, deadline=None)
@given(small_maps())
def test_search_equals_dense_reference(case):
    pmap, degree = case
    assert annihilator_basis_search(pmap, degree) == reference_basis_search(pmap, degree)


def test_search_equals_reference_on_named_maps():
    enc = local_encode(parse_circuit(FIG_TEXT), [2, -1], 3)
    for field in FIELDS:
        for pmap, degrees in ((kayal_map(1, 3, field), (2, 3, 5)),
                              (kayal_map(2, 2, field), (3, 4, 5))):
            for d in degrees:
                assert annihilator_basis_search(pmap, d) == reference_basis_search(pmap, d)
    for d in (1, 2, 3):
        assert annihilator_basis_search(enc.map, d) == reference_basis_search(enc.map, d)


def test_monomials_up_to_a_high_degree():
    # Deeper than the interpreter's recursion limit: the enumeration must not recurse.
    assert monomials_up_to(1, 3000) == [Monomial.of({0: e}) for e in range(3001)]


@pytest.mark.parametrize("n_vars,max_degree", [(0, 3), (1, 6), (2, 5), (3, 4), (4, 3), (6, 2)])
def test_monomials_up_to_equals_the_recursive_reference(n_vars, max_degree):
    for d in range(max_degree + 1):
        assert monomials_up_to(n_vars, d) == reference_monomials_up_to(n_vars, d)


# -- against the former Polynomial-product search ---------------------------------

P = config.DEFAULT_PRIME


def assert_same_basis(pmap: PolynomialMap, degree: int) -> list[Polynomial]:
    """The search and the former search give equal bases with equal text."""
    got = annihilator_basis_search(pmap, degree)
    expected = kernel_reference.annihilator_basis_search(pmap, degree)
    assert got == expected
    assert [format_polynomial(q) for q in got] == [format_polynomial(q) for q in expected]
    return got


@st.composite
def coefficient_maps(draw):
    """Random maps; over QQ with fractional coefficients and p in numerators
    and in denominators, over GF(p) with any residues."""
    field = draw(st.sampled_from(FIELDS))
    if field == QQ:
        nums = st.integers(-4, 4) | st.sampled_from([P, -P, 2 * P, P * P, P + 1])
        dens = st.integers(1, 5) | st.sampled_from([P, 3 * P, 7])
        coeffs = st.builds(Fraction, nums, dens)
    else:
        coeffs = st.integers(-4, 4) | st.integers(0, field.p - 1)
    seed_len = draw(st.integers(1, 3))
    out_len = draw(st.integers(1, 3))
    degree = draw(st.integers(0, (5, 4, 2)[out_len - 1]))
    outputs = []
    for _ in range(out_len):
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            exps = {v: draw(st.integers(0, 3)) for v in range(seed_len)}
            terms[Monomial.of(exps)] = draw(coeffs)
        outputs.append(Polynomial(field, terms))
    names = tuple(f"x{i}" for i in range(1, seed_len + 1))
    return PolynomialMap(outputs=tuple(outputs), seed_len=seed_len, seed_names=names), degree


@settings(max_examples=200, deadline=None)
@given(coefficient_maps())
def test_search_equals_former_search(case):
    assert_same_basis(*case)


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GFp", "GF7"])
@pytest.mark.parametrize("out_degree,degree", [(1, 8), (1, 7), (2, 4), (3, 5), (4, 4), (8, 2)],
                         ids=["8=2^3", "7=2^3-1", "8=2^3,g2", "15=2^4-1", "16=2^4", "16=2^4,g8"])
def test_search_equals_former_search_at_full_exponent_width(field, out_degree, degree):
    # z1^D reaches x^(D*g), with D*g a power of two or one less, so x fills
    # its packed width.  A width one bit short would carry x^(D*g) into y's
    # bits, where z2 = y and z3's y-terms would collide with it.
    y = Polynomial.variable(field, 1)
    g = out_degree
    x_g, y_g = Polynomial.monomial(field, 1, {0: g}), Polynomial.monomial(field, 1, {1: g})
    outputs = (x_g, y, x_g + y_g - Polynomial.constant(field, 1))
    pmap = PolynomialMap(outputs=outputs, seed_len=2, seed_names=("x", "y"))
    assert pmap.degree * degree in (8, 7, 15, 16)
    basis = assert_same_basis(pmap, degree)
    if g <= degree:
        assert basis  # z3 - z1 - z2^g + 1 and its multiples


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GFp", "GF7"])
def test_search_equals_former_search_on_wide_maps(field):
    assert_same_basis(pad(kayal_map(2, 2, field), 2000), 1)
    assert len(assert_same_basis(parallel_compose(kayal_map(1, 2, field), 40), 2)) == 40


# -- which path the rational search takes ----------------------------------------


def test_rational_search_returns_checked_modular_lift(monkeypatch):
    fields = spy_kernel(monkeypatch)
    pmap = kayal_map(2, 2)
    basis = annihilator_basis_search(pmap, 5)
    assert fields == [GF]
    assert len(basis) == 4
    assert basis == reference_basis_search(pmap, 5)


def test_empty_modular_kernel_returns_at_once(monkeypatch):
    fields = spy_kernel(monkeypatch)
    assert annihilator_basis_search(kayal_map(2, 2), 3) == []
    assert fields == [GF]


def test_denominator_p_is_cleared_per_output_and_stays_modular(monkeypatch):
    # Each output carries 1/p.  Clearing each output once moves that p into
    # the column scales den_j, so the integer rows keep their rank mod p and
    # the modular lift is exact.
    pmap = scaled(kayal_map(1, 2), Fraction(1, config.DEFAULT_PRIME))
    expected = reference_basis_search(pmap, 3)
    fields = spy_kernel(monkeypatch)
    assert annihilator_basis_search(pmap, 3) == expected
    assert fields == [GF]
    assert len(expected) == 3


@pytest.mark.parametrize("factor", [config.DEFAULT_PRIME, Fraction(config.DEFAULT_PRIME, 7)],
                         ids=["p", "p/7"])
def test_outputs_divisible_by_p_fall_back_to_rationals(monkeypatch, factor):
    # Every cleared entry but the constant candidate's 1 is divisible by p,
    # so the rank mod p is 1: each mod-p kernel vector lifts to a unit
    # vector, the exact check rejects it and the search eliminates over QQ.
    pmap = scaled(kayal_map(1, 2), factor)
    expected = reference_basis_search(pmap, 3)
    fields = spy_kernel(monkeypatch)
    assert annihilator_basis_search(pmap, 3) == expected
    assert fields == [GF, QQ]
    assert len(expected) == 3


def test_denominator_divisible_by_p_outside_the_kernel_stays_modular(monkeypatch):
    # Outputs (x, x^2, y/p): the kernel z1^2 - z2 does not read z3, and each
    # row has one denominator, so clearing keeps the rank mod p.
    x, y = (Polynomial.variable(QQ, v) for v in (0, 1))
    pmap = PolynomialMap(outputs=(x, x * x, y.scale(Fraction(1, config.DEFAULT_PRIME))),
                         seed_len=2, seed_names=("x", "y"))
    expected = reference_basis_search(pmap, 2)
    fields = spy_kernel(monkeypatch)
    assert annihilator_basis_search(pmap, 2) == expected
    assert fields == [GF]
    z1, z2 = Polynomial.variable(QQ, 0), Polynomial.variable(QQ, 1)
    assert expected == [z1 * z1 - z2]


@pytest.mark.parametrize("factor", [3**40, config.DEFAULT_PRIME + 1],
                         ids=["reconstruction-fails", "exact-check-fails"])
def test_large_kernel_entries_fall_back_to_rationals(monkeypatch, factor):
    # The kernel entries are factor and 2*factor, beyond the reconstruction
    # bound sqrt(p/2).  3^40 has no small lift mod p; p + 1 lifts to 1, which
    # is wrong, and only the exact check over QQ rejects it.
    pmap = scaled(kayal_map(1, 2), factor)
    expected = reference_basis_search(pmap, 2)
    fields = spy_kernel(monkeypatch)
    assert annihilator_basis_search(pmap, 2) == expected
    assert fields == [GF, QQ]
    assert max(abs(c) for _, c in expected[0].iter_terms()) > 2**30


# -- the shared elimination routine -----------------------------------------------


def test_rank_equals_dense_rank_mod_p():
    rng = random.Random(11)
    for p in (2, 7, config.DEFAULT_PRIME):
        field = PrimeField(p)
        for _ in range(60):
            n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
            zero_share = rng.random()
            dense = [[0 if rng.random() < zero_share else rng.randint(-5, 5)
                      for _ in range(n_cols)] for _ in range(n_rows)]
            sparse = [{j: field.normalize(x) for j, x in enumerate(row)} for row in dense]
            expected = _rank_mod_p([row[:] for row in dense], p)
            assert len(row_reduce(sparse, n_cols, field)) == expected


ELIMINATION_FIELDS = [QQ, PrimeField(2), PrimeField(7), GF]


@st.composite
def permuted_matrices(draw):
    """A sparse matrix, a permutation of its rows and a nonzero scale per row."""
    field = draw(st.sampled_from(ELIMINATION_FIELDS))
    if field == QQ:
        values = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    else:
        values = st.one_of(st.integers(-3, 3), st.integers(0, field.p - 1)).map(field.normalize)
    n_cols = draw(st.integers(1, 7))
    n_rows = draw(st.integers(0, 7))
    rows = [draw(st.dictionaries(st.integers(0, n_cols - 1), values, max_size=n_cols))
            for _ in range(n_rows)]
    order = draw(st.permutations(range(n_rows)))
    scales = [draw(values.filter(bool)) for _ in range(n_rows)]
    return field, n_cols, rows, order, scales


@settings(max_examples=200, deadline=None)
@given(permuted_matrices())
def test_row_reduce_ignores_row_order_and_row_scaling(case):
    field, n_cols, rows, order, scales = case
    moved = [{j: field.mul(x, scales[i]) for j, x in rows[i].items()} for i in order]
    assert row_reduce(moved, n_cols, field) == row_reduce(rows, n_cols, field)
    dense = [[row.get(j, field.zero) for j in range(n_cols)] for row in rows]
    expected = _kernel_basis(dense, n_rows=len(rows), n_cols=n_cols, f=field)
    got = [[vec.get(j, field.zero) for j in range(n_cols)]
           for vec in kernel_basis(moved, n_cols, field)]
    assert got == expected


def test_row_reduce_is_reduced_echelon_form():
    rows = [{0: Fraction(2), 1: Fraction(4), 3: Fraction(1)},
            {0: Fraction(1), 1: Fraction(2), 2: Fraction(1)},
            {2: Fraction(3), 3: Fraction(-3, 2)}]
    echelon = row_reduce(rows, 4, QQ)
    assert echelon == {0: {0: 1, 1: 2, 3: Fraction(1, 2)},
                       2: {2: 1, 3: Fraction(-1, 2)}}
    assert kernel_basis(rows, 4, QQ) == [{1: 1, 0: -2},
                                         {3: 1, 0: Fraction(-1, 2), 2: Fraction(1, 2)}]


def test_rational_reconstruction():
    p = config.DEFAULT_PRIME
    bound = 2**30
    for value in (Fraction(0), Fraction(1), Fraction(-7, 3), Fraction(bound - 1, 5),
                  Fraction(-3, bound - 1)):
        assert rational_reconstruction(GF.normalize(value), p) == value
    assert rational_reconstruction(GF.normalize(Fraction(3**40)), p) != 3**40

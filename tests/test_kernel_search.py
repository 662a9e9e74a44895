"""The sparse, modular-first kernel search against the dense reference."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annforge import annihilator, config
from annforge.annihilator import annihilator_basis_search
from annforge.circuit import parse_circuit
from annforge.encoding import PolynomialMap, local_encode
from annforge.fields import QQ, PrimeField
from annforge.instances import kayal_map
from annforge.linalg import kernel_basis, rational_reconstruction, row_reduce
from annforge.poly import Monomial, Polynomial

from conftest import FIG_TEXT
from dense_reference import _rank_mod_p, reference_basis_search

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


def test_denominator_divisible_by_p_falls_back_to_rationals(monkeypatch):
    pmap = scaled(kayal_map(1, 2), Fraction(1, config.DEFAULT_PRIME))
    expected = reference_basis_search(pmap, 3)
    fields = spy_kernel(monkeypatch)
    assert annihilator_basis_search(pmap, 3) == expected
    assert fields == [QQ]
    assert len(expected) == 3


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

"""Differential tests: ``determinant`` and ``resultant_with_cofactors``, which
share one memoized expansion along the last row, against the top-row
expansion and per-cofactor determinants kept in ``minors_reference``, over
QQ and GF(7)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annforge.errors import InputError, MatrixTooLargeError
from annforge.fields import QQ, PrimeField
from annforge.linalg import PolyMatrix, determinant, resultant_with_cofactors, sylvester
from annforge.poly import Namespace, Polynomial, parse_polynomial

from minors_reference import reference_determinant, reference_resultant_with_cofactors

FIELDS = [QQ, PrimeField(7)]
NS = Namespace(["y", "a", "b"])
Y = NS.id("y")

# Entries over a and b with some zeros, so the expansion skips entries.
entry_texts = st.sampled_from(["0", "0", "1", "-2", "a", "b", "a - 3", "2*a*b + 1",
                               "b^2", "1/2*a + b"])


def signature(p: Polynomial):
    """The terms of p with each coefficient's type."""
    return p, [(m, c, type(c)) for m, c in p.terms()]


@settings(max_examples=120, deadline=None)
@given(field=st.sampled_from(FIELDS), size=st.integers(1, 5), data=st.data())
def test_determinant_matches_reference(field, size, data):
    texts = data.draw(st.lists(entry_texts, min_size=size * size, max_size=size * size))
    entries = [parse_polynomial(t, field, NS) for t in texts]
    mat = PolyMatrix(tuple(tuple(entries[r * size:(r + 1) * size]) for r in range(size)))
    assert signature(determinant(mat)) == signature(reference_determinant(mat))


coefficient_texts = st.sampled_from(["0", "1", "-1", "3", "a", "b", "a + b", "a*b - 2"])


@settings(max_examples=120, deadline=None)
@given(field=st.sampled_from(FIELDS), data=st.data())
def test_resultant_with_cofactors_matches_reference(field, data):
    # Degrees 0..4 in y; a nonzero leading coefficient fixes each degree.
    def draw_poly():
        degree = data.draw(st.integers(0, 4))
        texts = data.draw(st.lists(coefficient_texts, min_size=degree, max_size=degree))
        lead = data.draw(st.sampled_from(["1", "2", "a", "b - 1"]))
        p = parse_polynomial(lead, field, NS) * Polynomial.monomial(field, 1, {Y: degree})
        for k, t in enumerate(texts):
            p = p + parse_polynomial(t, field, NS) * Polynomial.monomial(field, 1, {Y: k})
        return p

    f, g = draw_poly(), draw_poly()
    if f.degree_in(Y) == 0 and g.degree_in(Y) == 0:
        with pytest.raises(InputError):
            resultant_with_cofactors(f, g, Y)
        return
    got = resultant_with_cofactors(f, g, Y)
    expected = reference_resultant_with_cofactors(f, g, Y)
    assert [signature(p) for p in got] == [signature(p) for p in expected]
    res, u, v = got
    assert u * f + v * g == res


def test_one_by_one_sylvester_cofactor_is_one():
    # deg f = 1, deg g = 0: the 1x1 case needs no special branch.
    f = parse_polynomial("a*y + 1", QQ, NS)
    g = parse_polynomial("b", QQ, NS)
    assert resultant_with_cofactors(f, g, Y) == reference_resultant_with_cofactors(f, g, Y)
    assert resultant_with_cofactors(f, g, Y)[1:] == (Polynomial.zero(QQ),
                                                     Polynomial.constant(QQ, 1))


def test_size_guard_fires_before_the_sylvester_matrix_is_built():
    f = parse_polynomial("y^7 + 1", QQ, NS)
    g = parse_polynomial("y^6 - a", QQ, NS)
    with pytest.raises(MatrixTooLargeError, match="size 13 exceeds guard 12"):
        sylvester(f, g, Y)

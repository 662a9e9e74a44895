"""Determinants and resultant cofactors as the package computed them before
one memoized expansion served both, kept as the reference oracle.

The bodies are the earlier ``linalg.determinant`` (expansion along the top
row, recursing downwards) and ``linalg.resultant_with_cofactors`` (one more
determinant per cofactor of the last row, on a re-wrapped minor matrix),
unchanged but for their names.  The differential tests in
``test_minors.py`` require the package to return equal polynomials.
"""

from __future__ import annotations

from annforge import config
from annforge.errors import MatrixTooLargeError
from annforge.linalg import PolyMatrix, sylvester
from annforge.poly import Polynomial


def reference_determinant(matrix: PolyMatrix) -> Polynomial:
    """Exact determinant by cofactor expansion along the first rows, memoized
    on column subsets; guarded size."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of a non-square matrix")
    limit = config.DET_SIZE_LIMIT
    if matrix.rows > limit:
        raise MatrixTooLargeError(f"size {matrix.rows} exceeds guard {limit}")
    f = matrix.field
    entries = matrix.entries
    cache: dict[tuple[int, ...], Polynomial] = {}

    def minor(cols: tuple[int, ...]) -> Polynomial:
        if not cols:
            return Polynomial.constant(f, 1)
        if cols in cache:
            return cache[cols]
        row = matrix.rows - len(cols)
        acc = Polynomial.zero(f)
        for idx, col in enumerate(cols):
            entry = entries[row][col]
            if entry.is_zero():
                continue
            rest = cols[:idx] + cols[idx + 1:]
            sub = entry * minor(rest)
            acc = acc + sub if idx % 2 == 0 else acc - sub
        cache[cols] = acc
        return acc

    return minor(tuple(range(matrix.cols)))


def reference_resultant_with_cofactors(
    f: Polynomial, g: Polynomial, var: int
) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(res, u, v) with u*f + v*g = res, deg_var u < deg_var g and
    deg_var v < deg_var f.

    Obtained from the adjugate column of the Sylvester matrix (Cramer), so
    the identity holds even when res = 0.
    """
    n = f.degree_in(var)
    m = g.degree_in(var)
    mat = sylvester(f, g, var)
    field = f.field
    res = reference_determinant(mat)
    size = n + m
    last = size - 1

    def drop(rows_omit: int, cols_omit: int) -> PolyMatrix:
        sub = tuple(
            tuple(p for j, p in enumerate(row) if j != cols_omit)
            for i, row in enumerate(mat.entries)
            if i != rows_omit
        )
        return PolyMatrix(sub)

    # c_i = adj(S)[i, last] = (-1)^(last+i) * minor(S, row=last, col=i):
    # S c = res * e_last, i.e. u*f + v*g has var-coefficient vector res*e_last.
    coeffs: list[Polynomial] = []
    if size == 1:
        coeffs.append(Polynomial.constant(field, 1))
    else:
        for i in range(size):
            mnr = reference_determinant(drop(last, i))
            coeffs.append(mnr if (last + i) % 2 == 0 else -mnr)

    u = Polynomial.zero(field)
    for j in range(m):  # column j held var^{m-1-j} * f
        u = u + coeffs[j] * Polynomial.monomial(field, field.one, {var: m - 1 - j})
    v = Polynomial.zero(field)
    for j in range(n):
        v = v + coeffs[m + j] * Polynomial.monomial(field, field.one, {var: n - 1 - j})
    return res, u, v

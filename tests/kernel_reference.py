"""The degree-bounded kernel search as the package built it before the
packed integer images, kept as the reference oracle.

``annihilator_basis_search`` and ``_rational_kernel`` are the earlier
bodies, unchanged except that a monomial is divided by
``division_reference.divide``: each candidate's image is a ``Polynomial`` product
``image(m) * f_i`` over the map's field, and over QQ the rows of
``Fraction``s are cleared to integers inside ``_rational_kernel``.  The
differential tests in ``test_kernel_search.py`` require the package's
search to return the same bases.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from annforge import config
from annforge.annihilator import count_monomials, monomials_up_to
from annforge.encoding import PolynomialMap
from annforge.errors import SearchSpaceTooLargeError
from annforge.fields import QQ, PrimeField
from annforge.linalg import kernel_basis, rational_reconstruction
from annforge.poly import Monomial, Polynomial

from division_reference import divide


def annihilator_basis_search(
    pmap: PolynomialMap, max_total_degree: int, ceiling: int | None = None
) -> list[Polynomial]:
    """Basis of the degree-bounded annihilator space by exact kernel search.

    Candidate monomials of total degree <= D over the out_len output
    variables are mapped linearly to their composition with the map, built
    incrementally as image(m * z_i) = image(m) * f_i.  The basis is the
    kernel of that coefficient matrix in reduced row echelon form, one
    vector per free candidate, so it is canonical.  Over GF(p) it is
    computed directly.  Over QQ each row is cleared to integers and reduced
    mod config.DEFAULT_PRIME: an empty mod-p kernel proves the rational one
    empty, and otherwise the mod-p basis is lifted by rational
    reconstruction and returned only if every lifted vector is exactly in
    the rational kernel; if it is not, or if reconstruction fails, the
    kernel is recomputed over QQ.  Every returned polynomial
    composes to zero (certificates, not samples).
    """
    if max_total_degree < 0:
        raise ValueError("max_total_degree must be >= 0")
    limit = config.monomial_ceiling() if ceiling is None else ceiling
    n_cols = count_monomials(pmap.out_len, max_total_degree)
    if n_cols > limit:
        raise SearchSpaceTooLargeError(
            f"{n_cols} candidate monomials exceed ceiling {limit}"
        )
    f = pmap.field
    candidates = monomials_up_to(pmap.out_len, max_total_degree)

    # Row per seed monomial of the images, column j = candidate j.
    images: dict[Monomial, Polynomial] = {}
    row_of: dict[Monomial, dict[int, object]] = {}
    for j, mono in enumerate(candidates):
        if mono:
            var = mono[-1][0]
            image = images[divide(mono, Monomial.of({var: 1}))] * pmap.outputs[var]
        else:
            image = Polynomial.constant(f, f.one)
        images[mono] = image
        for m, c in image.iter_terms():
            row_of.setdefault(m, {})[j] = c
    rows = list(row_of.values())

    if f.characteristic == 0:
        kernel = _rational_kernel(rows, n_cols)
    else:
        kernel = kernel_basis(rows, n_cols, f)
    return [Polynomial(f, {candidates[j]: c for j, c in vec.items()}) for vec in kernel]


def _integral(values: dict) -> dict:
    """Rationals keyed by column, scaled by the lcm of their denominators."""
    d = lcm(*[c.denominator for c in values.values()])
    return {j: c.numerator * (d // c.denominator) for j, c in values.items()}


def _rational_kernel(rows: list[dict[int, Fraction]], n_cols: int) -> list[dict]:
    """kernel_basis over QQ, computed mod p first.

    Each row is cleared to integers once, which keeps its kernel and leaves
    no denominator to reduce.  For an integer matrix rank_p <= rank_QQ, so
    dim_QQ <= dim_p, and dim_p independent rational kernel vectors are a
    basis.  Each mod-p vector is zero past its own free column, so the
    lifted vectors fix the rational free columns and equal the rational
    reduced echelon basis.
    """
    integral = [_integral(row) for row in rows]
    p = config.DEFAULT_PRIME
    reduced = [{j: c % p for j, c in row.items()} for row in integral]
    lifted = []
    for vec in kernel_basis(reduced, n_cols, PrimeField(p)):
        exact = {j: rational_reconstruction(c, p) for j, c in vec.items()}
        if None in exact.values():
            return kernel_basis(integral, n_cols, QQ)
        lifted.append(exact)
    # A v = 0 exactly; with vectors scaled to integers too it stays Fraction-free.
    vectors = [_integral(vec) for vec in lifted]
    for row in integral:
        for vec in vectors:
            if sum(c * vec[j] for j, c in row.items() if j in vec) != 0:
                return kernel_basis(integral, n_cols, QQ)
    return lifted

"""Exact elimination and polynomial matrices: sparse row reduction over a
field, Jacobians, rank estimation, Sylvester resultants.

Rank over the function field is estimated by evaluating the matrix at
random points of F_p (sound: never exceeds the true rank; complete with
probability governed by Schwartz-Zippel).  Exact determinants use memoized
cofactor expansion behind a small-size guard; resultants in this artifact
only arise at desk scale.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from math import isqrt
from typing import Iterable, Mapping

from . import config
from .errors import InputError, MatrixTooLargeError
from .fields import Field, FieldValue, PrimeField
from .poly import Polynomial


@dataclasses.dataclass(frozen=True)
class PolyMatrix:
    entries: tuple[tuple[Polynomial, ...], ...]
    #: rank_random_eval's nonzero entries over F_p by p, kept like a plan.
    nonzero_mod: dict = dataclasses.field(default_factory=dict, init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise InputError("empty matrix")
        width = len(self.entries[0])
        if any(len(row) != width for row in self.entries):
            raise InputError("ragged matrix")
        field = self.entries[0][0].field
        for row in self.entries:
            for p in row:
                if p.field != field:
                    raise InputError("entries must share one field")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def field(self) -> Field:
        return self.entries[0][0].field

    def variables(self) -> set[int]:
        out: set[int] = set()
        for row in self.entries:
            for p in row:
                out |= p.variables()
        return out

    def max_entry_degree(self) -> int:
        return max(p.degree() for row in self.entries for p in row)


def jacobian(polys: list[Polynomial], variables: list[int]) -> PolyMatrix:
    """Matrix of partial derivatives: entry (i, j) = d polys[i] / d vars[j]."""
    return PolyMatrix(
        tuple(tuple(p.partial_derivative(v) for v in variables) for p in polys)
    )


def row_reduce(
    rows: Iterable[Mapping[int, FieldValue]], n_cols: int, field: Field
) -> dict[int, dict[int, FieldValue]]:
    """Reduced row echelon form of a sparse matrix over ``field``.

    Rows map column -> value (zeros are dropped; F_p values are residues in
    [0, p)).  The result maps each pivot column to its row: value one at the
    pivot, which is the row's smallest column, and no entry in any other
    pivot column.  That form is unique, so it equals the dense
    column-by-column elimination's whatever the row order.  Rows go in
    sparsest first, to keep fill-in down, and entries are updated with
    native operators, ``y - f*x`` (``% p`` over F_p).  Reducing by a pivot
    row touches only its nonzeros, and the scan stops once the rank reaches
    ``n_cols``.
    """
    p = field.characteristic
    echelon: dict[int, dict[int, FieldValue]] = {}

    def eliminate(row: dict, col: int, pivot_row: dict) -> None:
        factor = row[col]
        for k, x in pivot_row.items():
            y = row.get(k, 0) - factor * x
            if p:
                y %= p
            if y:
                row[k] = y
            else:
                del row[k]

    nonzero = [{k: x for k, x in source.items() if x} for source in rows]
    for row in sorted(nonzero, key=len):
        # Pivot rows hold no other pivot column, so one pass clears them all.
        for col in [c for c in row if c in echelon]:
            eliminate(row, col, echelon[col])
        if not row:
            continue
        lead = min(row)
        inv = field.inv(row[lead])
        row = {k: field.mul(x, inv) for k, x in row.items()}
        for other in echelon.values():
            if lead in other:
                eliminate(other, lead, row)
        echelon[lead] = row
        if len(echelon) == n_cols:
            break
    return echelon


def kernel_basis(
    rows: Iterable[Mapping[int, FieldValue]], n_cols: int, field: Field
) -> list[dict[int, FieldValue]]:
    """Basis of {v : A v = 0} for the sparse matrix A with ``n_cols`` columns.

    One vector per free (non-pivot) column j, in increasing j: v[j] = 1,
    zero at every other free column, and -R[c][j] at each pivot column c.
    Vectors are sparse (column -> nonzero value).
    """
    echelon = row_reduce(rows, n_cols, field)
    basis = {j: {j: field.one} for j in range(n_cols) if j not in echelon}
    for col, row in echelon.items():
        for j, x in row.items():
            if j != col:
                basis[j][col] = field.neg(x)
    return list(basis.values())


def rational_reconstruction(a: int, m: int) -> Fraction | None:
    """The fraction n/d with |n|, d <= sqrt(m/2) and n = a*d (mod m), or None.

    Half-extended Euclid on (m, a) stopped at the first remainder within the
    bound (Wang, Guy & Davenport 1982); such a fraction is unique when it
    exists.
    """
    bound = isqrt(m // 2)
    r0, r1 = m, a % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound:
        return None
    return Fraction(r1, s1)


def evaluation_field(field: Field, trials: int, p: int) -> PrimeField:
    """The field rank_random_eval evaluates in: F_q itself over F_q, where a
    foreign modulus would be unsound, and F_p over QQ.  Refuses trials < 1
    and a p that is not prime, naming --trials and --prime."""
    if trials < 1:
        raise InputError("--trials must be >= 1")
    if isinstance(field, PrimeField):
        return field
    try:
        return PrimeField(p)
    except InputError as exc:
        raise InputError(f"--prime {config.int_text(p)}: {exc}") from exc


def rank_random_eval(
    matrix: PolyMatrix, trials: int = config.DEFAULT_TRIALS,
    p: int = config.DEFAULT_PRIME, seed: int = 0,
) -> int:
    """Max over trials of the rank of the matrix evaluated at uniform random
    points of F_p.  Never exceeds the true rank; equal with high probability.
    Only the nonzero entries are evaluated (row_reduce drops zeros anyway);
    a Jacobian is mostly structural zeros.  They are built over F_p once
    per matrix and prime and kept on it, with their evaluation plans; a
    refused prime keeps nothing, so it raises on every call."""
    gf = evaluation_field(matrix.field, trials, p)
    entries = matrix.nonzero_mod.get(gf.p)
    if entries is None:
        entries = matrix.nonzero_mod[gf.p] = [
            [(j, e if e.field == gf else Polynomial(gf, dict(e.iter_terms())))
             for j, e in enumerate(row) if e] for row in matrix.entries]
    rng = random.Random(seed)
    variables = sorted(matrix.variables())
    point = [0] * (variables[-1] + 1 if variables else 0)
    best = 0
    for _ in range(trials):
        for v in variables:
            point[v] = rng.randrange(gf.p)
        rows = [{j: e.evaluate(point) for j, e in row} for row in entries]
        best = max(best, len(row_reduce(rows, matrix.cols, gf)))
    return best


# -- Sylvester resultants -----------------------------------------------------


def sylvester(f: Polynomial, g: Polynomial, var: int) -> PolyMatrix:
    """The (n+m) x (n+m) Sylvester matrix of f and g in ``var`` (n = deg_var f,
    m = deg_var g): first m columns from f's coefficients, last n from g's."""
    n = f.degree_in(var)
    m = g.degree_in(var)
    if n == 0 and m == 0:
        raise InputError("--f and --g are both constant in --var")
    size = n + m
    limit = config.DET_SIZE_LIMIT
    if size > limit:
        raise MatrixTooLargeError(f"size {config.int_text(size)} exceeds guard {limit}")
    field = f.field
    fc = f.coefficients_in(var)  # index k -> coefficient of var^k
    gc = g.coefficients_in(var)
    zero = Polynomial.zero(field)
    entries = [[zero] * size for _ in range(size)]
    for j in range(m):  # column j: coefficients of var^{m-1-j} * f
        for k in range(n + 1):
            entries[j + n - k][j] = fc[k]
    for j in range(n):  # column m+j: coefficients of var^{n-1-j} * g
        for k in range(m + 1):
            entries[j + m - k][m + j] = gc[k]
    return PolyMatrix(tuple(tuple(row) for row in entries))


def _minors(matrix: PolyMatrix):
    """minor(cols): det of the top len(cols) rows on the columns ``cols``,
    by cofactor expansion along the last of those rows, memoized on column
    subsets; guarded size.  minor(all columns) is the determinant, and the
    minors of its expansion are the cofactors of the last row."""
    if matrix.rows != matrix.cols:
        raise InputError("determinant of a non-square matrix")
    limit = config.DET_SIZE_LIMIT
    if matrix.rows > limit:
        raise MatrixTooLargeError(f"size {matrix.rows} exceeds guard {limit}")
    f = matrix.field
    entries = matrix.entries
    cache: dict[tuple[int, ...], Polynomial] = {(): Polynomial.constant(f, 1)}

    def minor(cols: tuple[int, ...]) -> Polynomial:
        if cols in cache:
            return cache[cols]
        row = len(cols) - 1
        acc = Polynomial.zero(f)
        for idx, col in enumerate(cols):
            entry = entries[row][col]
            if entry.is_zero():
                continue
            rest = cols[:idx] + cols[idx + 1:]
            sub = entry * minor(rest)
            acc = acc + sub if (row + idx) % 2 == 0 else acc - sub
        cache[cols] = acc
        return acc

    return minor


def determinant(matrix: PolyMatrix) -> Polynomial:
    """Exact determinant by memoized cofactor expansion; guarded size."""
    return _minors(matrix)(tuple(range(matrix.cols)))


def resultant(f: Polynomial, g: Polynomial, var: int) -> Polynomial:
    """det of the Sylvester matrix; zero iff f and g share a factor involving
    ``var``.  The result does not involve ``var``."""
    return determinant(sylvester(f, g, var))


def resultant_with_cofactors(
    f: Polynomial, g: Polynomial, var: int
) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(res, u, v) with u*f + v*g = res, deg_var u < deg_var g and
    deg_var v < deg_var f.

    Obtained from the adjugate column of the Sylvester matrix (Cramer), so
    the identity holds even when res = 0.
    """
    n = f.degree_in(var)
    m = g.degree_in(var)
    field = f.field
    minor = _minors(sylvester(f, g, var))
    cols = tuple(range(n + m))
    res = minor(cols)
    last = n + m - 1

    # c_i = adj(S)[i, last] = (-1)^(last+i) * minor(S, row=last, col=i):
    # S c = res * e_last, i.e. u*f + v*g has var-coefficient vector res*e_last.
    coeffs: list[Polynomial] = []
    for i in cols:
        mnr = minor(cols[:i] + cols[i + 1:])
        coeffs.append(mnr if (last + i) % 2 == 0 else -mnr)

    u = Polynomial.zero(field)
    for j in range(m):  # column j held var^{m-1-j} * f
        u = u + coeffs[j] * Polynomial.monomial(field, field.one, {var: m - 1 - j})
    v = Polynomial.zero(field)
    for j in range(n):
        v = v + coeffs[m + j] * Polynomial.monomial(field, field.one, {var: n - 1 - j})
    return res, u, v

"""Dense elimination kept as the reference oracle for the sparse routine.

``_kernel_basis`` and ``_rank_mod_p`` are the package's earlier dense
eliminators, unchanged; ``reference_basis_search`` is the earlier kernel
search around them (one full ``compose`` per candidate, dense matrix over
the map's field), and ``reference_monomials_up_to`` the earlier recursive
candidate enumeration it reads.  The differential tests require the
package's results to equal these.
"""

from __future__ import annotations

from annforge.annihilator import count_monomials
from annforge.encoding import compose_polynomial
from annforge.poly import Monomial, Polynomial


def reference_basis_search(pmap, max_total_degree: int) -> list[Polynomial]:
    f = pmap.field
    candidates = reference_monomials_up_to(pmap.out_len, max_total_degree)
    n_cols = count_monomials(pmap.out_len, max_total_degree)

    # Column j = coefficient vector of candidate_j composed with the map.
    columns: list[dict[Monomial, object]] = []
    row_index: dict[Monomial, int] = {}
    for mono in candidates:
        image = compose_polynomial(pmap, Polynomial(f, {mono: f.one}))
        col = {}
        for m, c in image.iter_terms():
            if m not in row_index:
                row_index[m] = len(row_index)
            col[row_index[m]] = c
        columns.append(col)

    n_rows = len(row_index)
    matrix = [[f.zero] * n_cols for _ in range(n_rows)]
    for j, col in enumerate(columns):
        for i, c in col.items():
            matrix[i][j] = c

    kernel = _kernel_basis(matrix, n_rows, n_cols, f)
    basis = []
    for vec in kernel:
        terms = {candidates[j]: c for j, c in enumerate(vec) if not f.is_zero(c)}
        basis.append(Polynomial(f, terms))
    return basis


def reference_monomials_up_to(n_vars: int, max_degree: int) -> list[Monomial]:
    """All monomials of total degree <= max_degree, ascending canonical order."""
    out: list[Monomial] = []

    def rec(var: int, remaining: int, current: dict[int, int]):
        out.append(Monomial.of(current))
        if remaining == 0:
            return
        for v in range(var, n_vars):
            current[v] = current.get(v, 0) + 1
            rec(v, remaining - 1, current)
            current[v] -= 1
            if current[v] == 0:
                del current[v]

    rec(0, max_degree, {})
    uniq = sorted(set(out), key=lambda m: m.sort_key)
    return uniq


def _kernel_basis(matrix, n_rows: int, n_cols: int, f) -> list[list]:
    """Kernel of a dense matrix by reduced row echelon form over the field."""
    pivots: list[int] = []
    row = 0
    for col in range(n_cols):
        pivot = next(
            (r for r in range(row, n_rows) if not f.is_zero(matrix[r][col])), None
        )
        if pivot is None:
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        inv = f.inv(matrix[row][col])
        matrix[row] = [f.mul(x, inv) for x in matrix[row]]
        for r in range(n_rows):
            if r != row and not f.is_zero(matrix[r][col]):
                factor = matrix[r][col]
                matrix[r] = [
                    f.sub(x, f.mul(factor, y)) for x, y in zip(matrix[r], matrix[row])
                ]
        pivots.append(col)
        row += 1
        if row == n_rows:
            break
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        vec = [f.zero] * n_cols
        vec[free] = f.one
        for r, pc in enumerate(pivots):
            vec[pc] = f.neg(matrix[r][free])
        basis.append(vec)
    return basis


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    """In-place Gaussian elimination over F_p."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if rows[r][col] % p != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col] % p, -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(n_rows):
            if r != rank and rows[r][col] % p:
                factor = rows[r][col]
                rows[r] = [(x - factor * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank

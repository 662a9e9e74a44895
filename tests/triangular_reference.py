"""The triangular inverse as the package built it before the peel replaced
it, kept as the reference oracle.

``triangular_inverse`` is the earlier body, unchanged: it inverts the first
n_vars outputs when output j reads c_j*v_j + g_j(v_<j) with c_j a nonzero
constant, and returns None for every other map.  The tests require
``encoding.peel`` to give the same substitution wherever this returns one.
"""

from __future__ import annotations

from typing import Sequence

from annforge.fields import FieldValue
from annforge.poly import Monomial, Polynomial


def triangular_inverse(
    outputs: Sequence[Polynomial], n_vars: int
) -> list[Polynomial] | None:
    """Inverse of the first n_vars outputs when they are triangular.

    Output j < N = n_vars must read c_j*v_j + g_j(v_0, ..., v_{j-1}) with
    c_j a nonzero constant; then the map psi = (F_0, ..., F_{N-1}) has the
    polynomial inverse psi^-1_j = (z_j - g_j o psi^-1) / c_j, built in the
    order j = 0, 1, ...  Returns [psi^-1_0, ..., psi^-1_{N-1}] over the ids
    0..N-1, or None when an output has another shape or there are fewer
    than N outputs.  For a local encoding psi^-1 of the y-block is exactly
    the gate lifts h_1..h_s.
    """
    if len(outputs) < n_vars:
        return None
    subst: dict[int, Polynomial] = {}
    for j in range(n_vars):
        out = outputs[j]
        f = out.field
        diagonal = Monomial(((j, 1),))
        c = out.coefficient(diagonal)
        if f.is_zero(c):
            return None
        unit = c == f.one
        inv = f.one if unit else f.inv(c)
        minus_inv = f.neg(inv)
        step: dict[Monomial, FieldValue] = {}
        for mono, coeff in out.iter_terms():
            if mono == diagonal:
                step[mono] = inv
            elif mono and mono[-1][0] >= j:
                return None
            else:
                step[mono] = f.neg(coeff) if unit else f.mul(coeff, minus_inv)
        # (v_j - g_j) / c_j with v_j kept as z_j and v_<j replaced by psi^-1.
        subst[j] = Polynomial.variable(f, j)
        subst[j] = Polynomial(f, step).compose(subst)
    return [subst[j] for j in range(n_vars)]

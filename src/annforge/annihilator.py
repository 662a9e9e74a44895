"""Annihilators of local encodings: the principal generator and friends.

Gate lifts h_i recover gate values through the encoding (h_i composed with
the map equals y_i); the generator of the annihilator ideal is
h = z_{n+s+1} - h_s + beta, monic of degree 1 in the last variable.  The
brute-force degree-bounded kernel search builds its coefficient matrix in
plain ints: seed monomials are packed into one int key each, and each
output is read in its stored form, integer numerators over one
denominator, so a column is an integer multiple of its candidate's image.
It eliminates modular-first: over the rationals it works on the integer
rows mod 2^61 - 1, lifts the kernel by rational reconstruction and keeps it
only after an exact check against the same integer rows (else it eliminates
over QQ), so it returns certificate vectors, not probabilistic claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from . import config
from .circuit import expand
from .encoding import LocalEncoding, PolynomialMap, annihilates
from .errors import (
    DecompositionMismatchError,
    InputError,
    InvariantError,
    NotAnAnnihilatorError,
    SearchSpaceTooLargeError,
)
from .fields import QQ, PrimeField
from .linalg import kernel_basis, rational_reconstruction
from .poly import Monomial, Polynomial


@dataclass(frozen=True)
class AnnihilatorCertificate:
    """Principal generator h plus the gate lifts it was assembled from.

    lift_gate_count is the size of the straight-line program implied by the
    synthesis (shared subexpressions counted once), kept to witness the
    linear-size claim; the lifts themselves are stored canonically as
    polynomials.
    """

    h: Polynomial
    gate_lifts: tuple[Polynomial, ...]
    lift_gate_count: int
    encoding: LocalEncoding


def synthesize_gate_lifts(enc: LocalEncoding) -> tuple[tuple[Polynomial, ...], int]:
    """Lift polynomials h_1..h_s over z_1..z_{n+s} and the straight-line
    gate count of the synthesis.

    An add gate k with children u, w has h_k = z_{n+k} + Lhat(u) + Lhat(w);
    a mul gate has h_k = z_{n+k} + Lhat(u)*Lhat(w), where Lhat maps a const
    gate to its constant, input gate i to z_i + alpha_i, and the j-th
    internal gate to h_j.  These are sigma on the y block, which the peel
    of the encoding's outputs computes.  Each gate costs two straight-line
    gates, plus one per input with nonzero alpha that a gate reads; a gate
    reads at most two inputs, so the count is at most 4s.
    """
    f = enc.map.field
    circuit = enc.circuit
    sigma, paired = enc.map.inverse
    if len(paired) < enc.map.seed_len:
        raise InvariantError("the peel leaves a seed variable of the local encoding unpaired")
    gates = circuit.gates
    read = {gates[child].var for gid in circuit.internal_order
            for child in (gates[gid].left, gates[gid].right) if gates[child].op == "input"}
    gate_count = 2 * enc.s + sum(1 for i in read if not f.is_zero(enc.alpha[i]))
    return tuple(sigma[v] for v in range(enc.n, enc.n + enc.s)), gate_count


def principal_generator(enc: LocalEncoding) -> AnnihilatorCertificate:
    """h = z_{n+s+1} - h_s + beta, the generator of the annihilator ideal."""
    f = enc.map.field
    lifts, gate_count = synthesize_gate_lifts(enc)
    last = Polynomial.variable(f, enc.n + enc.s)
    h = last - lifts[-1] + Polynomial.constant(f, enc.beta)
    gate_count += 2  # subtract h_s, add beta
    return AnnihilatorCertificate(
        h=h, gate_lifts=lifts, lift_gate_count=gate_count, encoding=enc
    )


def verify_annihilates(p: Polynomial, pmap: PolynomialMap) -> bool:
    """Exact decision of p o map = 0 (see encoding.annihilates)."""
    return annihilates(p, pmap)


@dataclass(frozen=True)
class Decomposition:
    f_shifted: Polynomial  # f(z_1 + alpha_1, ..., z_n + alpha_n)
    g: Polynomial  # h - z_{n+s+1} + f_shifted - beta, in <z_{n+1}..z_{n+s}>


def decompose(cert: AnnihilatorCertificate) -> Decomposition:
    """Split h into its circuit part and gate-variable error term, verifying
    that g lies in <z_{n+1},...,z_{n+s}>: g vanishes at z_{n+1}=...=z_{n+s}=0,
    which says the same as h restricting there to z_{n+s+1} - f_shifted + beta."""
    enc = cert.encoding
    f = enc.map.field
    n, s = enc.n, enc.s
    circuit_poly = expand(enc.circuit)
    shift = {i: Polynomial.variable(f, i) + Polynomial.constant(f, enc.alpha[i])
             for i in range(n)}
    f_shifted = circuit_poly.substitute(shift)
    last = Polynomial.variable(f, n + s)
    g = cert.h - last + f_shifted - Polynomial.constant(f, enc.beta)

    zero = Polynomial.zero(f)
    kill_gate_vars = {n + j: zero for j in range(s)}
    if not g.substitute(kill_gate_vars).is_zero():
        raise DecompositionMismatchError("g does not vanish at z_{n+1}=...=z_{n+s}=0")
    return Decomposition(f_shifted=f_shifted, g=g)


def count_monomials(n_vars: int, max_degree: int) -> int:
    return comb(n_vars + max_degree, max_degree)


def monomials_up_to(n_vars: int, max_degree: int) -> list[Monomial]:
    """All monomials of total degree <= max_degree, ascending canonical order.

    by_degree[d] holds those of degree d in the variables v.., ascending;
    adding v appends z_v times each of by_degree[d - 1], in its order.
    """
    by_degree: list[list[Monomial]] = [[Monomial()]] + [[] for _ in range(max_degree)]
    for v in reversed(range(n_vars)):
        z_v = Monomial(((v, 1),))
        for d in range(1, max_degree + 1):
            by_degree[d] += [z_v.mul(m) for m in by_degree[d - 1]]
    return [m for level in by_degree for m in level]


def annihilator_basis_search(pmap: PolynomialMap, max_total_degree: int) -> list[Polynomial]:
    """Basis of the degree-bounded annihilator space by exact kernel search.

    Candidate monomials of total degree <= D over the out_len output
    variables are mapped linearly to their composition with the map, built
    incrementally as image(m * z_i) = image(m) * f_i in plain ints.  No
    image exponent exceeds D * deg F, so a seed monomial packs into one int
    key with that many bits per variable and a product of monomials is the
    sum of their keys, with no carry.  Each output f_i is read in its stored
    form, integer numerators F_i over a denominator den_i (over GF(p)
    residues over 1, and each image entry is reduced once), so over QQ
    column j holds den_j = prod den_i^e_i times candidate j's image, an
    integer matrix with the same free columns.  The
    basis is the kernel in reduced row echelon form, one vector per free
    candidate, so it is canonical.  Over GF(p) it is computed directly; over
    QQ by _rational_kernel, and each integer kernel vector w is scaled back
    by v_j = w_j * den_j / den_free, which keeps v_free = 1.  Every returned
    polynomial composes to zero (certificates, not samples).
    """
    if max_total_degree < 0:
        raise InputError("--degree must be >= 0")
    limit = config.monomial_ceiling()
    n_cols = count_monomials(pmap.out_len, max_total_degree)
    if n_cols > limit:
        raise SearchSpaceTooLargeError(
            f"{config.int_text(n_cols)} candidate monomials exceed ceiling {limit}"
        )
    f = pmap.field
    p = f.characteristic
    candidates = monomials_up_to(pmap.out_len, max_total_degree)
    bits = max(1, (max_total_degree * max(pmap.degree, 0)).bit_length())
    factors: list[list[tuple[int, int]]] = []  # packed terms of each F_i
    factor_dens: list[int] = []
    for q in pmap.outputs:
        terms, den = q.integer_terms()
        factors.append([(sum(e << bits * v for v, e in m), c) for m, c in terms])
        factor_dens.append(den)

    # Row per packed seed monomial of the images, column j = candidate j.
    images: dict[tuple, dict[int, int]] = {}
    row_of: dict[int, dict[int, int]] = {}
    for j, mono in enumerate(candidates):
        if mono:
            var, e = mono[-1]
            parent = images[mono[:-1] + ((var, e - 1),) if e > 1 else mono[:-1]]
            sums: dict[int, int] = {}
            get = sums.get
            for ka, ca in parent.items():
                for kb, cb in factors[var]:
                    k = ka + kb
                    sums[k] = get(k, 0) + ca * cb
            if p:
                image = {k: r for k, n in sums.items() if (r := n % p)}
            else:
                image = {k: n for k, n in sums.items() if n}
        else:
            image = {0: 1}
        images[mono] = image
        for k, c in image.items():
            row_of.setdefault(k, {})[j] = c
    rows = list(row_of.values())

    if p:
        kernel = kernel_basis(rows, n_cols, f)
    else:
        kernel = []
        for w in _rational_kernel(rows, n_cols):
            den = {j: prod(factor_dens[v] ** e for v, e in candidates[j]) for j in w}
            kernel.append({j: Fraction(c * den[j], den[max(w)]) for j, c in w.items()})
    return [Polynomial(f, {candidates[j]: c for j, c in vec.items()}) for vec in kernel]


def _rational_kernel(rows: list[dict[int, int]], n_cols: int) -> list[dict]:
    """kernel_basis over QQ of an integer matrix, computed mod p first.

    For an integer matrix rank_p <= rank_QQ, so dim_QQ <= dim_p, and dim_p
    independent rational kernel vectors are a basis.  Each mod-p vector is
    zero past its own free column, so the lifted vectors fix the rational
    free columns and equal the rational reduced echelon basis.  An empty
    mod-p kernel proves the rational one empty; otherwise the mod-p basis is
    lifted by rational reconstruction and returned only if every lifted
    vector is exactly in the rational kernel.  If it is not, or if
    reconstruction fails, the kernel is recomputed over QQ from the same
    integer rows.
    """
    p = config.DEFAULT_PRIME
    gf = PrimeField(p)
    reduced = [{j: c % p for j, c in row.items()} for row in rows]
    lifted = []
    for vec in kernel_basis(reduced, n_cols, gf):
        exact = {j: rational_reconstruction(c, p) for j, c in vec.items()}
        if None in exact.values():
            return kernel_basis(rows, n_cols, QQ)
        lifted.append(exact)
    # A v = 0 exactly; with vectors cleared to integers by the constructor
    # (keyed by column, not monomial) the check builds no Fraction.
    vectors = [dict(Polynomial(QQ, vec).integer_terms()[0]) for vec in lifted]
    for row in rows:
        for vec in vectors:
            if sum(c * vec[j] for j, c in row.items() if j in vec) != 0:
                return kernel_basis(rows, n_cols, QQ)
    return lifted


def extract_hard_multiple(p: Polynomial, enc: LocalEncoding) -> Polynomial:
    """Recover a multiple of f(z) - beta from an annihilator.

    Applies z_i -> z_i - alpha_i for the input variables and z_i -> w*z_i for
    the gate/output variables, then returns the coefficient of the minimal
    w-power (the exact replacement for the interpolation argument).
    """
    if p.is_zero():
        raise NotAnAnnihilatorError("zero polynomial")
    if not verify_annihilates(p, enc.map):
        raise NotAnAnnihilatorError("polynomial does not annihilate the encoding")
    f = enc.map.field
    n = enc.n
    w = enc.out_len  # fresh variable id, one past the z block
    subst: dict[int, Polynomial] = {}
    for i in range(n):
        subst[i] = Polynomial.variable(f, i) - Polynomial.constant(f, enc.alpha[i])
    for i in range(n, enc.out_len):
        subst[i] = Polynomial.monomial(f, f.one, {w: 1, i: 1})
    image = p.substitute(subst)
    min_power = min(m.degree_in(w) for m, _ in image.iter_terms())
    return image.coefficients_in(w)[min_power]

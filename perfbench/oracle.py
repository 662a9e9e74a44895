"""Independent oracle for the benchmark's output checks.

Written with ``fractions`` alone: it imports nothing from annforge, so a
fault in annforge's parser, evaluator or encoder cannot hide itself by
agreeing with its own output.  Everything here works from the texts the
program reads and writes (canonical polynomial text, circuit DSL) and from
the definitions in the paper.

Values are ``Fraction``s over QQ; with a prime ``p`` every result is reduced
to an integer residue in ``[0, p)``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb


def to_field(value, p):
    if p is None:
        return Fraction(value)
    value = Fraction(value)
    return value.numerator * pow(value.denominator, -1, p) % p


# -- polynomial text ----------------------------------------------------------


def parse_poly(text: str) -> list[tuple[Fraction, tuple[tuple[str, int], ...]]]:
    """Terms ``(coefficient, ((name, exponent), ...))`` of polynomial text in
    the grammar ``c*v1^e1*...`` joined by ``+``/``-``.  Repeated monomials
    are kept as separate terms; evaluation sums them."""
    body = "".join(text.split())
    if not body:
        raise ValueError("empty polynomial text")
    terms = []
    sign, start = 1, 0
    if body[0] in "+-":
        sign, start = (-1 if body[0] == "-" else 1), 1
    pieces = []
    i = start
    for j in range(start, len(body) + 1):
        if j == len(body) or body[j] in "+-":
            pieces.append((sign, body[i:j]))
            if j < len(body):
                sign = -1 if body[j] == "-" else 1
                i = j + 1
    for sign, piece in pieces:
        if not piece:
            raise ValueError(f"empty term in {text!r}")
        coeff = Fraction(sign)
        factors = []
        for factor in piece.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, exp = factor.partition("^")
                factors.append((name, int(exp) if exp else 1))
        terms.append((coeff, tuple(factors)))
    return terms


def eval_poly(terms, env: dict, p: int | None = None):
    """Value of parsed terms at ``env`` (name -> value)."""
    acc = Fraction(0)
    for coeff, factors in terms:
        val = coeff
        for name, exp in factors:
            val *= Fraction(env[name]) ** exp
        acc += val
    return to_field(acc, p)


def degree_in(terms, name: str) -> list[int]:
    """The exponent of ``name`` in every term."""
    return [dict(factors).get(name, 0) for _, factors in terms]


# -- circuits -----------------------------------------------------------------


class DslCircuit:
    """A circuit read from DSL text: ``inputs``, then ``gK = add|mul a b``
    lines in definition order, then ``output``."""

    def __init__(self, text: str):
        self.inputs: list[str] = []
        self.gates: list[tuple[str, str, str, str]] = []
        self.output = None
        for raw in text.splitlines():
            parts = raw.split("#", 1)[0].split()
            if not parts or parts[0] == "circuit":
                continue
            if parts[0] == "inputs":
                self.inputs = parts[1:]
            elif parts[0] == "output":
                self.output = parts[1]
            elif len(parts) == 5 and parts[1] == "=" and parts[2] in ("add", "mul"):
                self.gates.append((parts[0], parts[2], parts[3], parts[4]))
            else:
                raise ValueError(f"cannot read circuit line {raw!r}")
        if self.output != self.gates[-1][0]:
            raise ValueError("output must be the last gate")

    @property
    def n(self) -> int:
        return len(self.inputs)

    @property
    def s(self) -> int:
        return len(self.gates)

    def _ref(self, ref: str, values: dict):
        if ref in values:
            return values[ref]
        return Fraction(ref)

    def evaluate(self, point, p: int | None = None):
        """Gate-by-gate value at ``point`` (one value per input)."""
        values = dict(zip(self.inputs, (Fraction(v) for v in point)))
        for name, op, a, b in self.gates:
            left, right = self._ref(a, values), self._ref(b, values)
            values[name] = left + right if op == "add" else left * right
        return to_field(values[self.output], p)

    def encoding_outputs(self, alpha, beta, seed_point, p: int | None = None) -> list:
        """The local encoding's outputs at a seed point ``(x1..xn, y1..ys)``,
        built from their definition: ``x_i - alpha_i``, then
        ``y_k - (L(u) o L(w))`` per gate, then ``y_s - beta``.  L sends an
        input to its x, a constant to itself and the k-th gate to y_k."""
        n = self.n
        xs = [Fraction(v) for v in seed_point[:n]]
        ys = [Fraction(v) for v in seed_point[n:]]
        lvals = dict(zip(self.inputs, xs))
        lvals.update((g[0], ys[k]) for k, g in enumerate(self.gates))
        outs = [x - Fraction(a) for x, a in zip(xs, alpha)]
        for k, (_, op, a, b) in enumerate(self.gates):
            left, right = self._ref(a, lvals), self._ref(b, lvals)
            outs.append(ys[k] - (left + right if op == "add" else left * right))
        outs.append(ys[-1] - Fraction(beta))
        return [to_field(v, p) for v in outs]


def z_env(values) -> dict:
    """Bind z1..zm to ``values``."""
    return {f"z{i}": v for i, v in enumerate(values, start=1)}


# -- maps of the kernel workload ----------------------------------------------


def kayal_outputs(n: int, d: int, shift, scale, seed_point, p: int | None = None) -> list:
    """Outputs of the power-sum map ``x_i^d - 1`` (i = 1..n) and
    ``x_1 + ... + x_n - n``, after the affine change ``x_i -> a_i*x_i + b_i``
    (``shift`` = [(a_i, b_i)]) and the output scaling ``scale`` = [c_j]."""
    xs = [Fraction(a) * Fraction(x) + Fraction(b) for (a, b), x in zip(shift, seed_point)]
    outs = [x ** d - 1 for x in xs] + [sum(xs) - n]
    return [to_field(Fraction(c) * v, p) for c, v in zip(scale, outs)]


def annihilator_dimension(m: int, max_degree: int, generator_degree: int) -> int:
    """Dimension of the polynomials of total degree <= D in a principal
    ideal of ``m`` variables whose generator has degree ``deg P``:
    ``C(m + D - deg P, m)``, and 0 below the generator's degree."""
    if max_degree < generator_degree:
        return 0
    return comb(m + max_degree - generator_degree, m)


# -- 3CNF ---------------------------------------------------------------------


def count_models(clauses, n_vars: int) -> int:
    """Brute-force count of the 0/1 assignments satisfying every clause
    (literal +i is x_i, -i is its negation)."""
    count = 0
    for bits in product((0, 1), repeat=n_vars):
        if all(any((bits[abs(l) - 1] == 1) == (l > 0) for l in cl) for cl in clauses):
            count += 1
    return count


# -- determinants -------------------------------------------------------------


def determinant(rows) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


def rank(vectors, p: int | None = None) -> int:
    """Rank of coefficient vectors (dicts key -> value) by Gaussian
    elimination over QQ, or over GF(p) when ``p`` is given."""
    rows = [{k: to_field(v, p) for k, v in vec.items() if to_field(v, p) != 0}
            for vec in vectors]
    r = 0
    while rows:
        row = rows.pop()
        if not row:
            continue
        r += 1
        key, piv = next(iter(row.items()))
        for other in rows:
            c = other.get(key)
            if c is None:
                continue
            factor = c / piv if p is None else c * pow(piv, -1, p) % p
            for k, v in row.items():
                val = other.get(k, 0) - factor * v
                val = val if p is None else val % p
                if val:
                    other[k] = val
                else:
                    other.pop(k, None)
    return r

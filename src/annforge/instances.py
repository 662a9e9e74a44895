"""Named instance families used as demos and test corpora.

Families: the power-sum maps with one linear dependency (x_i^d - 1 blocks),
their constant-locality chain variant, the tight Nullstellensatz-degree
system, small determinant circuits, and the 3CNF-to-polynomial translation.
"""

from __future__ import annotations

from . import config
from .circuit import Circuit, CircuitBuilder
from .encoding import PolynomialMap
from .errors import InputError, ParseError
from .fields import QQ, Field
from .ips import EquationSystem
from .poly import MONOMIAL_ONE, Monomial, Polynomial


def kayal_map(n: int, d: int, field: Field = QQ) -> PolynomialMap:
    """n+1 outputs over n seed variables: x_i^d - 1 for each i, plus
    x_1 + ... + x_n - n.  Stretch 1; minimal annihilator degree grows like
    d^n."""
    if n < 1 or d < 1:
        raise InputError("family kayal needs --n >= 1 and --d >= 1")
    config.check_map_size("kayal_map", n, n + 1)
    one = Polynomial.constant(field, 1)
    outputs = [Polynomial.monomial(field, field.one, {i: d}) - one for i in range(n)]
    linear = {Monomial.of({i: 1}): 1 for i in range(n)}
    linear[MONOMIAL_ONE] = -n
    outputs.append(Polynomial.from_integer_terms(field, linear))
    return PolynomialMap(
        outputs=tuple(outputs),
        seed_len=n,
        seed_names=tuple(f"x{i}" for i in range(1, n + 1)),
    )


def kayal_chain_map(n: int, d: int, field: Field = QQ) -> PolynomialMap:
    """Constant-locality variant: the linear output is unrolled through
    chain variables y_2..y_{n-1}, so every output touches at most 3
    variables.  Requires n >= 3."""
    if n < 3:
        raise InputError("family kayal-chain needs --n >= 3")
    if d < 1:
        raise InputError("family kayal-chain needs --d >= 1")
    config.check_map_size("kayal_chain_map", 2 * n - 2, 2 * n - 1)
    one = Polynomial.constant(field, 1)
    # Seed variables: x1..xn (ids 0..n-1), y2..y_{n-1} (ids n..2n-3).
    def y(j: int) -> Polynomial:  # j in 2..n-1
        return Polynomial.variable(field, n + j - 2)

    def x(i: int) -> Polynomial:  # i in 1..n
        return Polynomial.variable(field, i - 1)

    outputs = [Polynomial.monomial(field, field.one, {i: d}) - one for i in range(n)]
    outputs.append(x(1) + x(2) - y(2))
    for j in range(2, n - 1):
        outputs.append(y(j) + x(j + 1) - y(j + 1))
    outputs.append(y(n - 1) + x(n) - Polynomial.constant(field, n))
    names = tuple(f"x{i}" for i in range(1, n + 1)) + tuple(
        f"y{j}" for j in range(2, n)
    )
    return PolynomialMap(outputs=tuple(outputs), seed_len=2 * n - 2, seed_names=names)


def masser_philippon_system(n: int, d: int, field: Field = QQ) -> EquationSystem:
    """The tight-degree system: x_1^d, x_{i-1} - x_i^d, ..., 1 - x_{n-1}x_n^{d-1}."""
    if n < 2 or d < 2:
        raise InputError("family masser-philippon needs --n >= 2 and --d >= 2")
    config.check_map_size("masser_philippon_system", n, n)
    eqs = [Polynomial.monomial(field, field.one, {0: d})]
    for i in range(2, n):
        eqs.append(
            Polynomial.variable(field, i - 2)
            - Polynomial.monomial(field, field.one, {i - 1: d})
        )
    last = Polynomial.constant(field, 1) - Polynomial.monomial(
        field, field.one, {n - 2: 1, n - 1: d - 1}
    )
    eqs.append(last)
    names = tuple(f"x{i}" for i in range(1, n + 1))
    pmap = PolynomialMap(outputs=tuple(eqs), seed_len=n, seed_names=names)
    return EquationSystem(pmap, f"masser_philippon_n{n}_d{d}")


def det_circuit(n: int, field: Field = QQ) -> Circuit:
    """Fan-in-2 circuit for the n x n determinant on variables x11..xnn,
    by first-row cofactor expansion with memoized minors (2 <= n <= 5)."""
    if not 2 <= n <= 5:
        raise InputError("family det needs 2 <= --n <= 5")
    names = tuple(f"x{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1))
    b = CircuitBuilder(field, n * n, input_names=names, name=f"det{n}")
    cache: dict[tuple[int, ...], int] = {}

    def minor(cols: tuple[int, ...]) -> int:
        """Gate computing det of rows n-len(cols)..n-1 on the given columns."""
        if cols in cache:
            return cache[cols]
        row = n - len(cols)
        if len(cols) == 1:
            ref = b.input(row * n + cols[0])
        else:
            signed: list[int] = []
            for idx, col in enumerate(cols):
                rest = cols[:idx] + cols[idx + 1:]
                prod = b.mul(b.input(row * n + col), minor(rest))
                signed.append(prod if idx % 2 == 0 else b.mul(b.const(-1), prod))
            ref = b.tree_reduce("add", signed)
        cache[cols] = ref
        return ref

    return b.build(minor(tuple(range(n))))


Clause = tuple[int, int, int]


def encode_3cnf(clauses: list[Clause], n_vars: int, field: Field = QQ) -> EquationSystem:
    """Boolean axioms x_i^2 - x_i plus one cubic per clause.

    A clause is a triple of nonzero DIMACS-style literals: +i for x_i,
    -i for its negation.  The clause polynomial vanishes at a 0/1 point iff
    the clause is satisfied: literal +i contributes factor (x_i - 1),
    literal -i contributes factor x_i.
    """
    if n_vars < 1:
        raise ParseError("a 3CNF needs at least one variable")
    config.check_map_size("encode_3cnf", n_vars, n_vars + len(clauses))
    eqs = [
        Polynomial.monomial(field, field.one, {i: 2}) - Polynomial.variable(field, i)
        for i in range(n_vars)
    ]
    one = Polynomial.constant(field, 1)
    for idx, clause in enumerate(clauses):
        if len(clause) != 3:
            raise ParseError(f"clause {idx} must have exactly 3 literals")
        poly = Polynomial.constant(field, 1)
        for lit in clause:
            if lit == 0 or abs(lit) > n_vars:
                raise ParseError(f"clause {idx} has bad literal {lit}")
            var = Polynomial.variable(field, abs(lit) - 1)
            poly = poly * (var - one if lit > 0 else var)
        eqs.append(poly)
    names = tuple(f"x{i}" for i in range(1, n_vars + 1))
    pmap = PolynomialMap(outputs=tuple(eqs), seed_len=n_vars, seed_names=names)
    return EquationSystem(pmap, "cnf3")


def parse_dimacs(text: str) -> tuple[list[Clause], int]:
    """DIMACS-like 3CNF reader: 'p cnf <vars> <clauses>' header, clauses as
    whitespace-separated literals terminated by 0, 'c' comment lines."""
    n_vars: int | None = None
    clauses: list[Clause] = []
    current: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts, header = line.split(), line.startswith("p")
        if header and (len(parts) < 4 or parts[1] != "cnf"):
            raise ParseError(f"bad problem line {config.quote(line)}")
        numbers = [config.read_int(tok, "a DIMACS number")
                   for tok in (parts[2:3] if header else parts)]
        if None in numbers:
            raise ParseError(f"line {config.quote(line)} has a token that is not an integer")
        if header:
            n_vars = numbers[0]
            continue
        for lit in numbers:
            if lit == 0:
                if len(current) != 3:
                    raise ParseError(f"clause {config.quote(current)} does not have 3 literals")
                clauses.append((current[0], current[1], current[2]))
                current = []
            else:
                current.append(lit)
    if current:
        raise ParseError("trailing literals without terminating 0")
    if n_vars is None:
        n_vars = max((abs(l) for cl in clauses for l in cl), default=0)
    return clauses, n_vars

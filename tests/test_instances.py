import itertools
import random

import pytest

from annforge.annihilator import annihilator_basis_search
from annforge.circuit import evaluate_circuit, expand
from annforge.encoding import compose_polynomial
from annforge.errors import BudgetExceededError, InputError, ParseError
from annforge.fields import QQ, Field, PrimeField
from annforge.instances import (
    det_circuit,
    encode_3cnf,
    kayal_chain_map,
    kayal_map,
    masser_philippon_system,
    parse_dimacs,
)
from annforge.linalg import jacobian, rank_random_eval
from annforge.poly import Namespace, Polynomial

from conftest import P
from division_reference import exact_divide


def leibniz_determinant(n: int, field: Field = QQ) -> Polynomial:
    """Independent oracle: the Leibniz permutation sum for det_n."""
    acc = Polynomial.zero(field)
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        exps = {i * n + perm[i]: 1 for i in range(n)}
        sign = field.one if inversions % 2 == 0 else field.neg(field.one)
        acc = acc + Polynomial.monomial(field, sign, exps)
    return acc


# -- kayal maps -----------------------------------------------------------------


def test_kayal_map_n2_d2():
    pmap = kayal_map(2, 2)
    ns = ["x1", "x2"]
    assert list(pmap.outputs) == [P("x1^2 - 1", ns), P("x2^2 - 1", ns), P("x1 + x2 - 2", ns)]
    assert pmap.seed_len == 2 and pmap.stretch == 1


def test_kayal_map_n1_d1():
    pmap = kayal_map(1, 1)
    ns = ["x1"]
    assert list(pmap.outputs) == [P("x1 - 1", ns), P("x1 - 1", ns)]


def test_kayal_minimal_annihilator_degree_four():
    pmap = kayal_map(2, 2)
    for d in (1, 2, 3):
        assert annihilator_basis_search(pmap, d) == []
    assert annihilator_basis_search(pmap, 4)


def test_kayal_outputs_algebraically_dependent():
    for n, d in [(2, 2), (3, 2)]:
        pmap = kayal_map(n, d)
        assert rank_random_eval(jacobian(list(pmap.outputs), list(range(n)))) <= n


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=repr)
def test_kayal_map_equals_the_former_sum(field):
    # The linear output was once built by n additions; n = 7 over GF(7)
    # loses its constant.  The terms must also keep their order.
    for n in range(1, 10):
        for d in (1, 2, 3):
            total = Polynomial.zero(field)
            for i in range(n):
                total = total + Polynomial.variable(field, i)
            linear = kayal_map(n, d, field).outputs[-1]
            former = total - Polynomial.constant(field, n)
            assert linear == former
            assert list(linear.integer_terms()[0]) == list(former.integer_terms()[0])


def test_families_refuse_a_map_past_the_term_budget(monkeypatch):
    monkeypatch.setenv("AF_TERM_BUDGET", "10")
    kayal_map(9, 2)  # 10 outputs
    for build in (lambda: kayal_map(10, 2), lambda: kayal_chain_map(6, 2),
                  lambda: masser_philippon_system(11, 2),
                  lambda: encode_3cnf([(1, 2, 3)], 10)):
        with pytest.raises(BudgetExceededError, match="exceeds budget 10"):
            build()


def test_kayal_chain_n3_d2():
    pmap = kayal_chain_map(3, 2)
    ns = ["x1", "x2", "x3", "y2"]
    assert list(pmap.outputs) == [
        P("x1^2 - 1", ns),
        P("x2^2 - 1", ns),
        P("x3^2 - 1", ns),
        P("x1 + x2 - y2", ns),
        P("y2 + x3 - 3", ns),
    ]
    assert pmap.seed_len == 4 and pmap.stretch == 1


def test_kayal_chain_outputs_are_local():
    for n in (3, 4, 6):
        pmap = kayal_chain_map(n, 2)
        for out in pmap.outputs:
            assert len(out.variables()) <= 3


def test_kayal_chain_requires_n_at_least_3():
    with pytest.raises(InputError):
        kayal_chain_map(2, 2)


def test_kayal_chain_collapses_to_kayal():
    # Substituting the chain away recovers x1 + ... + xn - n.
    for n in (3, 5):
        pmap = kayal_chain_map(n, 2)
        # forward-substitute y2 = x1 + x2, y_{j+1} = y_j + x_{j+1}
        subst = {}
        prev = Polynomial.variable(QQ, 0) + Polynomial.variable(QQ, 1)
        subst[n] = prev  # y2 has id n
        for j in range(3, n):
            prev = prev + Polynomial.variable(QQ, j - 1)
            subst[n + j - 2] = prev
        collapsed = pmap.outputs[-1].substitute(subst)
        expected = Polynomial.zero(QQ)
        for i in range(n):
            expected = expected + Polynomial.variable(QQ, i)
        expected = expected - Polynomial.constant(QQ, n)
        assert collapsed == expected
        # The intermediate chain outputs all vanish under the substitution.
        for out in pmap.outputs[n:-1]:
            assert out.substitute(subst).is_zero()


# -- masser-philippon ---------------------------------------------------------------


def test_masser_philippon_n3_d2():
    system = masser_philippon_system(3, 2)
    ns = ["x1", "x2", "x3"]
    assert list(system.equations) == [
        P("x1^2", ns),
        P("x1 - x2^2", ns),
        P("1 - x2*x3", ns),
    ]


def test_masser_philippon_unsat_argument_n2_d2():
    # x1^2 = 0 forces x1 = 0 (over any field); then 1 - x1*x2 = 1 != 0.
    system = masser_philippon_system(2, 2)
    f1, f2 = system.equations
    # On the variety of f1, x1 is nilpotent: check 1 - f2 is divisible by x1.
    ns = ["x1", "x2"]
    assert exact_divide(P("1", ns) - f2, P("x1", ns)) is not None


def test_masser_philippon_parameter_validation():
    with pytest.raises(InputError):
        masser_philippon_system(1, 2)
    with pytest.raises(InputError):
        masser_philippon_system(2, 1)


# -- determinant circuits -------------------------------------------------------------


def test_det2_expansion():
    names = ["x11", "x12", "x21", "x22"]
    assert expand(det_circuit(2)) == P("x11*x22 - x12*x21", names)


def test_det3_at_identity():
    c = det_circuit(3)
    identity = [1 if i == j else 0 for i in range(3) for j in range(3)]
    assert evaluate_circuit(c, identity) == 1


def test_det3_has_six_signed_terms():
    p = expand(det_circuit(3))
    assert p.term_count() == 6
    assert p == leibniz_determinant(3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_det_matches_leibniz(n):
    assert expand(det_circuit(n)) == leibniz_determinant(n)


def test_det_range_guard():
    with pytest.raises(InputError):
        det_circuit(1)
    with pytest.raises(InputError):
        det_circuit(6)


# -- 3CNF ----------------------------------------------------------------------------


def test_clause_polynomial_all_positive():
    system = encode_3cnf([(1, 2, 3)], 3)
    ns = ["x1", "x2", "x3"]
    clause_poly = system.equations[3]
    expected = P("x1 - 1", ns) * P("x2 - 1", ns) * P("x3 - 1", ns)
    assert clause_poly == expected


def test_clause_vanishes_on_satisfying_assignment():
    system = encode_3cnf([(1, 2, 3)], 3)
    clause_poly = system.equations[3]
    assert clause_poly.evaluate([1, 0, 0]) == 0
    assert clause_poly.evaluate([0, 0, 0]) != 0


def test_malformed_clauses_rejected():
    with pytest.raises(ParseError):
        encode_3cnf([(1, 2)], 3)  # type: ignore[list-item]
    with pytest.raises(ParseError):
        encode_3cnf([(1, 2, 0)], 3)
    with pytest.raises(ParseError):
        encode_3cnf([(1, 2, 9)], 3)


def satisfies(clauses, assignment) -> bool:
    return all(
        any(
            (assignment[abs(lit) - 1] == 1) == (lit > 0)
            for lit in clause
        )
        for clause in clauses
    )


def test_exhaustive_equivalence_small():
    rng = random.Random(515)
    for _ in range(8):
        n = rng.randint(3, 6)
        m = rng.randint(1, 12)
        clauses = []
        for _ in range(m):
            vs = rng.sample(range(1, n + 1), 3)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        system = encode_3cnf(clauses, n)
        for assignment in itertools.product([0, 1], repeat=n):
            vanishes = all(eq.evaluate(list(assignment)) == 0 for eq in system.equations)
            assert vanishes == satisfies(clauses, assignment)


def test_parse_dimacs():
    text = """c example
p cnf 3 2
1 -2 3 0
-1 2 -3 0
"""
    clauses, n = parse_dimacs(text)
    assert n == 3
    assert clauses == [(1, -2, 3), (-1, 2, -3)]
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 3 1\n1 2 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("1 2 3\n")

import dataclasses
import random
from fractions import Fraction

import pytest

from annforge.circuit import (
    CircuitBuilder,
    circuit_from_polynomial,
    evaluate_circuit,
    expand,
    metrics,
    parse_circuit,
    random_circuit,
    serialize_circuit,
)
from annforge.errors import BudgetExceededError, CircuitError, ParseError
from annforge.fields import QQ, PrimeField
from annforge.poly import Namespace, Polynomial

from conftest import FIG_TEXT, SINGLE_ADD_TEXT, P


def test_parse_fig_circuit(fig_circuit):
    assert fig_circuit.size == 4
    assert fig_circuit.n_inputs == 2
    assert fig_circuit.name == "squares_diff"


def test_parse_single_line():
    c = parse_circuit("circuit t\ninputs x1 x2\ng1 = add x1 x2\noutput g1\n")
    assert c.size == 1


@pytest.mark.parametrize(
    "text",
    [
        # self/forward reference (cycles are unrepresentable beyond this)
        "circuit t\ninputs x1\ng1 = add g1 x1\noutput g1\n",
        "circuit t\ninputs x1\ng1 = add g2 x1\ng2 = add x1 x1\noutput g2\n",
        # undefined reference
        "circuit t\ninputs x1\ng1 = add x9 x1\noutput g1\n",
        # missing output
        "circuit t\ninputs x1\ng1 = add x1 x1\n",
        # wrong fan-in
        "circuit t\ninputs x1\ng1 = add x1\noutput g1\n",
        "circuit t\ninputs x1\ng1 = add x1 x1 x1\noutput g1\n",
        # unknown op
        "circuit t\ninputs x1\ng1 = pow x1 x1\noutput g1\n",
        # output is not the last defined gate
        "circuit t\ninputs x1\ng1 = add x1 x1\ng2 = add g1 g1\noutput g1\n",
        # duplicate gate name
        "circuit t\ninputs x1\ng1 = add x1 x1\ng1 = add x1 x1\noutput g1\n",
        # bad gate names: a literal would read as a constant, not as the gate
        "circuit t\ninputs x1\n5 = add x1 x1\ng2 = mul 5 x1\noutput g2\n",
        "circuit t\ninputs x1\n= = add x1 x1\noutput =\n",
        "circuit t\ninputs x1\ng-1 = add x1 x1\noutput g-1\n",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_circuit(text)


def test_evaluate_fig_at_3_2(fig_circuit):
    # Hand-applied gate semantics: g1=-2, g2=5, g3=1, g4=5.
    assert evaluate_circuit(fig_circuit, [3, 2]) == 5
    # Cross-check against symbolic expansion.
    assert expand(fig_circuit).evaluate([3, 2]) == 5


def test_evaluate_at_zero_matches_constant_term(fig_circuit):
    assert evaluate_circuit(fig_circuit, [0, 0]) == expand(fig_circuit).constant_term()


def test_evaluate_arity_mismatch(fig_circuit):
    with pytest.raises(CircuitError):
        evaluate_circuit(fig_circuit, [1])


def test_expand_fig(fig_circuit):
    assert expand(fig_circuit) == P("x1^2 - x2^2", ["x1", "x2"])


def test_expand_constant_feed():
    c = parse_circuit("circuit t\ninputs\ng1 = add 5 0\noutput g1\n")
    assert expand(c) == Polynomial.constant(QQ, 5)
    assert evaluate_circuit(c, []) == 5


def test_expand_budget_exceeded(monkeypatch):
    monkeypatch.setenv("AF_TERM_BUDGET", "1000")
    b = CircuitBuilder(QQ, 1, name="repeated_squaring")
    ref = b.input(0)
    g = b.add(ref, b.const(1))
    for _ in range(20):
        g = b.mul(g, g)
    c = b.build()
    with pytest.raises(BudgetExceededError):
        expand(c)


@pytest.mark.parametrize("budget, refused", [(5, False), (4, True)])
def test_expand_budget_boundary(monkeypatch, budget, refused):
    # (x1 + 1)^4 has 5 terms: accepted at a budget of exactly 5, refused at 4.
    monkeypatch.setenv("AF_TERM_BUDGET", str(budget))
    b = CircuitBuilder(QQ, 1, name="fourth_power")
    g = b.add(b.input(0), b.const(1))
    g = b.mul(g, g)
    b.mul(g, g)
    c = b.build()
    if refused:
        with pytest.raises(BudgetExceededError, match=r"^gate \d+: 5 terms exceeds budget 4$"):
            expand(c)
    else:
        assert expand(c).term_count() == 5


def test_metrics_fig(fig_circuit):
    m = metrics(fig_circuit)
    assert (m.size, m.depth, m.degree_bound) == (4, 3, 2)


def test_metrics_single_add(single_add_circuit):
    m = metrics(single_add_circuit)
    assert (m.size, m.depth, m.degree_bound) == (1, 1, 1)


def test_metrics_are_computed_once_per_circuit(fig_circuit):
    # pit's CLI path and sz_pit both ask; the second call reads the cache.
    first = metrics(fig_circuit)
    assert metrics(fig_circuit) is first
    assert metrics(dataclasses.replace(fig_circuit)) == first


def test_metrics_input_only_reference():
    b = CircuitBuilder(QQ, 1)
    c = b.build(b.input(0))
    m = metrics(c)
    assert m.size == 0 and m.depth == 0 and m.degree_bound == 1
    assert evaluate_circuit(c, [9]) == 9


def test_degree_bound_dominates_true_degree():
    rng = random.Random(5)
    checked = 0
    for seed in range(60):
        c = random_circuit(rng.randint(1, 4), rng.randint(1, 8), seed, const_pool=(1, -1))
        m = metrics(c)
        if m.degree_bound <= 8:
            assert expand(c).degree() <= m.degree_bound
            checked += 1
    assert checked > 20


def test_random_circuit_determinism():
    a = random_circuit(2, 4, seed=7, const_pool=(1,))
    b = random_circuit(2, 4, seed=7, const_pool=(1,))
    assert a == b
    assert a.size == 4
    assert random_circuit(3, 1, seed=0).size == 1
    with pytest.raises(CircuitError):
        random_circuit(2, 0, seed=1)
    # No input and no constant leaves no gate to draw the first operands from.
    with pytest.raises(CircuitError, match="needs an input or a constant"):
        random_circuit(0, 3, seed=1)
    assert random_circuit(0, 3, seed=1, const_pool=(2,)).size == 3


def test_random_circuit_eval_matches_expansion():
    # Property: gate-by-gate evaluation equals evaluate(expand(c)) exactly.
    rng = random.Random(11)
    checked = 0
    for seed in range(80):
        n = rng.randint(1, 4)
        c = random_circuit(n, rng.randint(1, 8), seed=seed, const_pool=(1, -1, 2))
        if metrics(c).degree_bound > 8:
            continue
        p = expand(c)
        for _ in range(20):
            point = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
            assert evaluate_circuit(c, point) == p.evaluate(point)
        checked += 1
    assert checked >= 40


def test_tree_reduce_add_three():
    b = CircuitBuilder(QQ, 3)
    before = len(b.gates)
    b.tree_reduce("add", [0, 1, 2])
    assert len(b.gates) - before == 2
    c = b.build()
    assert expand(c) == P("x1 + x2 + x3", ["x1", "x2", "x3"])


def test_tree_reduce_single_operand_adds_nothing():
    b = CircuitBuilder(QQ, 1)
    before = len(b.gates)
    assert b.tree_reduce("mul", [0]) == 0
    assert len(b.gates) == before


def test_tree_reduce_mul_four_operands():
    b = CircuitBuilder(QQ, 4)
    before = len(b.gates)
    b.tree_reduce("mul", [0, 1, 2, 3])
    assert len(b.gates) - before == 3


def test_tree_reduce_empty_rejected():
    b = CircuitBuilder(QQ, 1)
    with pytest.raises(CircuitError):
        b.tree_reduce("add", [])


def test_serialize_parse_identity(fig_circuit):
    # Gates are named g1.., or by a prefix with one more "g" while an input
    # is named by the prefix and digits.
    for names, prefix in [(("x1", "x2"), "g"), (("g1", "g2"), "gg"), (("g1", "gg2"), "ggg")]:
        circuit = dataclasses.replace(fig_circuit, input_names=names)
        text = serialize_circuit(circuit)
        assert f"\noutput {prefix}4\n" in text
        again = parse_circuit(text)
        assert again == circuit
        assert serialize_circuit(again) == text


def test_circuit_from_polynomial_roundtrip():
    p = P("2*x1^2*x2 - x3 + 1/2", ["x1", "x2", "x3"])
    c = circuit_from_polynomial(p, 3)
    assert expand(c) == p


def test_prime_field_circuit():
    gf = PrimeField(13)
    c = parse_circuit(FIG_TEXT, gf)
    assert evaluate_circuit(c, [3, 2]) == 5
    assert evaluate_circuit(c, [3, 4]) == (9 - 16) % 13

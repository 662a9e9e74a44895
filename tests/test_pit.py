import random
from fractions import Fraction

import pytest

from annforge import config
from annforge.circuit import (
    CircuitBuilder,
    circuit_from_polynomial,
    expand,
    metrics,
    parse_circuit,
    random_circuit,
)
from annforge.encoding import local_encode
from annforge.errors import BudgetExceededError, InputError, PointBudgetExceededError
from annforge.fields import QQ, PrimeField
from annforge.instances import kayal_map
from annforge.pit import HitResult, generator_pit, hit_test, sz_pit
from annforge.poly import Polynomial

from conftest import FIG_TEXT, Z


def zero_circuit():
    # x1 - x1, built as add(x1, mul(-1, x1)).
    b = CircuitBuilder(QQ, 1, name="zero")
    b.add(b.input(0), b.mul(b.const(-1), b.input(0)))
    return b.build()


def test_sz_zero_circuit_always_zero():
    for seed in range(20):
        verdict = sz_pit(zero_circuit(), trials=5, seed=seed)
        assert verdict.is_zero
        assert verdict.failure_bound < 1


@pytest.mark.parametrize("budget, refused", [(3, False), (2, True)])
def test_sz_qq_degree_budget_boundary(fig_circuit, monkeypatch, budget, refused):
    # fig_circuit has degree bound 2, which counts 3: accepted at budget - 1,
    # refused at the budget.
    monkeypatch.setenv("AF_TERM_BUDGET", str(budget))
    if refused:
        with pytest.raises(BudgetExceededError,
                           match="^circuit degree bound 2 exceeds budget 2$"):
            sz_pit(fig_circuit, trials=3, seed=1)
    else:
        assert not sz_pit(fig_circuit, trials=3, seed=1).is_zero


def test_sz_fig_circuit_nonzero_with_witness(fig_circuit):
    verdict = sz_pit(fig_circuit, trials=20, seed=3)
    assert verdict.verdict == "nonzero"
    assert verdict.witness is not None
    from annforge.circuit import evaluate_circuit

    assert evaluate_circuit(fig_circuit, verdict.witness) != 0


def test_sz_failure_bound_value(fig_circuit):
    verdict = sz_pit(zero_circuit(), trials=3, grid_size=4, seed=0)
    # degree bound of the zero circuit construction is 1.
    assert verdict.failure_bound == Fraction(1, 4) ** 3


def test_sz_grid_too_small_for_field():
    gf = PrimeField(5)
    c = parse_circuit(FIG_TEXT, gf)
    with pytest.raises(InputError):
        sz_pit(c, trials=1, grid_size=9, seed=0)


def test_sz_small_grid_warns(fig_circuit):
    with pytest.warns(UserWarning):
        sz_pit(fig_circuit, trials=1, grid_size=2, seed=0)


def test_sz_detection_frequency():
    # Per-trial detection of nonzero circuits at grid 2d+1 is >= 1/2.
    rng = random.Random(1000)
    hits = 0
    total = 0
    seed = 0
    while total < 100:
        seed += 1
        n = rng.randint(1, 4)
        c = random_circuit(n, rng.randint(1, 8), seed=seed + 10_000, const_pool=(1, -1))
        if metrics(c).degree_bound > 8 or expand(c).is_zero():
            continue
        total += 1
        verdict = sz_pit(c, trials=1, seed=seed)
        if verdict.verdict == "nonzero":
            hits += 1
    assert hits / total >= 0.4


# -- generator-based PIT -----------------------------------------------------------


def test_generator_pit_fooled_by_own_annihilator(fig_encoding, fig_cert):
    c = circuit_from_polynomial(fig_cert.h, 7, name="h_circuit")
    verdict = generator_pit(c, fig_encoding.map, mode="symbolic")
    assert verdict.is_zero
    assert verdict.failure_bound == 0


def test_generator_pit_projection_hits(fig_circuit):
    enc = local_encode(fig_circuit, [1, 0], 0)
    b = CircuitBuilder(QQ, 1, name="proj")
    b.add(b.input(0), b.const(0))
    c = b.build()
    verdict = generator_pit(c, enc.map, mode="symbolic")
    assert verdict.verdict == "nonzero"


def test_generator_pit_deterministic_grid_matches_symbolic():
    pmap = kayal_map(2, 2)  # 2 seed variables, degree 2
    b = CircuitBuilder(QQ, 3, name="c")
    b.mul(b.input(0), b.input(1))
    c = b.build()  # degree 2 in the map outputs
    grid_verdict = generator_pit(c, pmap, mode="deterministic_grid")
    sym_verdict = generator_pit(c, pmap, mode="symbolic")
    assert grid_verdict.verdict == sym_verdict.verdict
    assert grid_verdict.trials_run <= 25
    assert grid_verdict.failure_bound == 0


def test_generator_pit_grid_point_budget_guard(fig_encoding, fig_cert, monkeypatch):
    monkeypatch.setattr(config, "DEFAULT_POINT_BUDGET", 100)
    c = circuit_from_polynomial(fig_cert.h, 7, name="h_circuit")
    with pytest.raises(PointBudgetExceededError):
        generator_pit(c, fig_encoding.map, mode="deterministic_grid")


def test_generator_pit_randomized_agrees_with_symbolic_on_nonzero():
    rng = random.Random(55)
    agreements = 0
    seed = 0
    while agreements < 100:
        seed += 1
        n = rng.randint(1, 3)
        s = rng.randint(1, 6)
        c = random_circuit(n, s, seed=seed + 20_000, const_pool=(1, -1))
        if metrics(c).degree_bound > 6:
            continue
        enc_circuit = random_circuit(max(n, 2), rng.randint(1, 6), seed=seed + 30_000,
                                     const_pool=(1,))
        enc = local_encode(
            enc_circuit, [rng.randint(-2, 2) for _ in range(enc_circuit.n_inputs)], 0
        )
        if c.n_inputs > enc.map.out_len:
            continue
        rand_verdict = generator_pit(c, enc.map, mode="randomized", trials=6, seed=seed)
        if rand_verdict.verdict == "nonzero":
            sym_verdict = generator_pit(c, enc.map, mode="symbolic")
            assert sym_verdict.verdict == "nonzero"
        agreements += 1


# -- hit tests ------------------------------------------------------------------------


def test_hit_fooled_zero_classification(fig_encoding, fig_cert):
    assert hit_test(fig_encoding.map, fig_cert.h) is HitResult.FOOLED
    assert hit_test(fig_encoding.map, Z("z1 + z2", 7)) is HitResult.HIT
    assert hit_test(fig_encoding.map, Polynomial.zero(QQ)) is HitResult.ZERO_INPUT


def test_hit_fooled_for_all_multiples(fig_encoding, fig_cert):
    rng = random.Random(66)
    for _ in range(20):
        r = Polynomial.monomial(
            QQ, rng.randint(1, 5), {rng.randrange(7): rng.randint(0, 2)}
        )
        assert hit_test(fig_encoding.map, fig_cert.h * r) is HitResult.FOOLED


def test_hit_below_minimal_annihilator_degree():
    # Kayal n=2 d=2: no annihilator below degree 4, so every nonzero
    # polynomial of degree <= 3 must be Hit.
    pmap = kayal_map(2, 2)
    rng = random.Random(77)
    for _ in range(40):
        q = Polynomial.zero(QQ)
        for _ in range(rng.randint(1, 5)):
            exps = {rng.randrange(3): rng.randint(0, 3)}
            q = q + Polynomial.monomial(QQ, rng.randint(-4, 4), exps)
        if q.is_zero() or q.degree() > 3:
            continue
        assert hit_test(pmap, q) is HitResult.HIT

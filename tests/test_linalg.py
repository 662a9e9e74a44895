import random

import pytest

from annforge.circuit import parse_circuit, random_circuit
from annforge.encoding import local_encode
from annforge.errors import InputError, MatrixTooLargeError, ModularReductionError
from annforge.fields import QQ, PrimeField
from annforge.instances import det_circuit, kayal_map
from annforge.linalg import (
    PolyMatrix,
    determinant,
    jacobian,
    rank_random_eval,
    resultant,
    resultant_with_cofactors,
    sylvester,
)
from annforge.poly import Namespace, Polynomial

from conftest import FIG_TEXT, P
from rank_reference import rank_random_eval as reference_rank

NS = Namespace(["x1", "x2", "x3", "y", "a", "b"])


def p(text):
    return P(text, NS)


# -- jacobian ------------------------------------------------------------------


def test_jacobian_diagonal():
    mat = jacobian([p("x1^2"), p("x2^2")], [0, 1])
    assert mat.entries[0][0] == p("2*x1")
    assert mat.entries[1][1] == p("2*x2")
    assert mat.entries[0][1].is_zero() and mat.entries[1][0].is_zero()


def test_jacobian_constant_row_is_zero():
    mat = jacobian([p("5"), p("x1")], [0, 1])
    assert all(entry.is_zero() for entry in mat.entries[0])


def test_jacobian_of_encoding_is_unitriangular():
    # First n+s outputs: ones on the diagonal, zeros above it.
    rng = random.Random(2)
    for seed in range(20):
        n = rng.randint(1, 4)
        s = rng.randint(1, 10)
        c = random_circuit(n, s, seed=seed + 400, const_pool=(1, -1))
        enc = local_encode(c, [rng.randint(-2, 2) for _ in range(n)], 0)
        mat = jacobian(list(enc.map.outputs[: n + s]), list(range(n + s)))
        one = Polynomial.constant(QQ, 1)
        for i in range(n + s):
            assert mat.entries[i][i] == one
            for j in range(i + 1, n + s):
                assert mat.entries[i][j].is_zero()


# -- rank ----------------------------------------------------------------------


def test_rank_diagonal():
    mat = jacobian([p("x1^2"), p("x2^2")], [0, 1])
    assert rank_random_eval(mat, trials=2, seed=5) == 2


def test_rank_dependent_rows():
    mat = PolyMatrix(((p("x1"),), (p("x1"),)))
    assert rank_random_eval(mat, trials=3, seed=1) == 1


def test_rank_never_exceeds_dimensions_and_is_monotone():
    rng = random.Random(9)
    for seed in range(10):
        rows = tuple(
            tuple(p(f"{rng.randint(-3, 3)}*x1 + {rng.randint(-3, 3)}*x2") for _ in range(3))
            for _ in range(4)
        )
        mat = PolyMatrix(rows)
        r1 = rank_random_eval(mat, trials=1, seed=seed)
        r3 = rank_random_eval(mat, trials=3, seed=seed)
        assert r1 <= r3 <= min(mat.rows, mat.cols)


def test_rank_encoding_jacobian_is_full():
    # Triangular-with-units structure makes the true rank n+s; the exact
    # determinant of the triangular minor is 1, so the randomized rank must
    # report exactly n+s.
    rng = random.Random(14)
    for seed in range(50):
        n = rng.randint(1, 4)
        s = rng.randint(1, 10)
        c = random_circuit(n, s, seed=seed + 800, const_pool=(1, 2))
        enc = local_encode(c, [rng.randint(-2, 2) for _ in range(n)], 0)
        mat = jacobian(list(enc.map.outputs[: n + s]), list(range(n + s)))
        assert rank_random_eval(mat, trials=2, seed=seed) == n + s


def _encoding_jacobian(circuit, rng):
    enc = local_encode(circuit, [rng.randint(-5, 5) for _ in range(circuit.n_inputs)],
                       rng.randint(-5, 5))
    return jacobian(list(enc.map.outputs), list(range(enc.map.seed_len)))


@pytest.mark.parametrize("p", [None, 5], ids=["default_p", "p5"])
def test_rank_skipping_zero_entries_equals_former_rank(p):
    # The Jacobians of the evaluate benchmark's kinds.  Over F_5 some
    # coefficients vanish, so entries nonzero over QQ reduce to zero.
    kw = {} if p is None else {"p": p}
    kayal = kayal_map(4, 2, QQ)
    kayal_jac = jacobian(list(kayal.outputs), list(range(kayal.seed_len)))
    for seed in range(50):
        rng = random.Random(seed)
        for mat in (_encoding_jacobian(parse_circuit(FIG_TEXT), rng),
                    _encoding_jacobian(det_circuit(2, QQ), rng), kayal_jac):
            assert rank_random_eval(mat, trials=2, seed=seed, **kw) == \
                reference_rank(mat, trials=2, seed=seed, **kw)


def test_rank_over_a_prime_field_equals_former_rank():
    gf = PrimeField(7)
    for seed in range(50):
        rng = random.Random(seed)
        circuit = random_circuit(2, 4, seed=seed, const_pool=(1, 3), field=gf)
        mat = _encoding_jacobian(circuit, rng)
        assert rank_random_eval(mat, trials=1, seed=seed) == \
            reference_rank(mat, trials=1, seed=seed)


def test_rank_keeps_the_reduced_entries_of_a_matrix(monkeypatch):
    # The nonzero entries over F_p are built once per matrix and prime, so a
    # second call compiles no evaluation plan; a refused prime keeps nothing
    # and raises on every call.
    compile_plan = Polynomial._compile
    compiled = []
    monkeypatch.setattr(Polynomial, "_compile",
                        lambda poly: compiled.append(poly) or compile_plan(poly))
    qq = jacobian([p("1/3*x1^2 + x2"), p("x1*x2 - 2/5*x3")], [0, 1, 2])
    gf = PolyMatrix(tuple(tuple(Polynomial(PrimeField(7), dict(e.iter_terms())) for e in row)
                          for row in qq.entries))
    for mat in (qq, gf):
        rank = rank_random_eval(mat, trials=3, seed=1)
        assert rank == reference_rank(mat, trials=3, seed=1) == 2
        count = len(compiled)
        assert count
        assert rank_random_eval(mat, trials=3, seed=1) == rank
        assert len(compiled) == count
    for _ in range(2):
        with pytest.raises(ModularReductionError):
            rank_random_eval(qq, p=3)


def test_trdeg_examples():
    # The Jacobian's rank over the variables read bounds the transcendence degree.
    assert rank_random_eval(jacobian([p("x1"), p("x2"), p("x1 + x2")], [0, 1])) == 2
    assert rank_random_eval(jacobian([p("x1^2 - 7")], [0])) == 1


def test_trdeg_encoding_outputs_dependent():
    # All n+s+1 outputs have transcendence degree exactly n+s.
    rng = random.Random(6)
    for seed in range(15):
        n = rng.randint(1, 3)
        s = rng.randint(1, 8)
        c = random_circuit(n, s, seed=seed + 1200, const_pool=(1, -1))
        enc = local_encode(c, [rng.randint(-2, 2) for _ in range(n)], 0)
        mat = jacobian(list(enc.map.outputs), list(range(n + s)))
        assert rank_random_eval(mat, seed=seed) == n + s


# -- sylvester / resultant -------------------------------------------------------


def test_sylvester_linear_pair():
    f, g = p("y - a"), p("y - b")
    mat = sylvester(f, g, NS.id("y"))
    one = Polynomial.constant(QQ, 1)
    assert mat.entries == ((one, one), (p("-a"), p("-b")))


def test_sylvester_x_squared_and_x():
    f, g = p("y^2"), p("y")
    mat = sylvester(f, g, NS.id("y"))
    one = Polynomial.constant(QQ, 1)
    zero = Polynomial.zero(QQ)
    assert mat.rows == mat.cols == 3
    assert mat.entries == ((one, one, zero), (zero, zero, one), (zero, zero, zero))


def test_sylvester_shape():
    f = p("x1*y^3 + y + 1")
    g = p("y^2 - x2")
    mat = sylvester(f, g, NS.id("y"))
    assert mat.rows == mat.cols == 5


def test_sylvester_rejects_constant_pair():
    with pytest.raises(InputError):
        sylvester(p("a"), p("b"), NS.id("y"))


def test_resultant_linear_pair():
    assert resultant(p("y - a"), p("y - b"), NS.id("y")) == p("a - b")


def test_resultant_shared_factor_vanishes():
    rng = random.Random(42)
    y = NS.id("y")
    for _ in range(20):
        shared = p("y - x1")
        q = p(f"y + {rng.randint(1, 5)}*x2 + {rng.randint(0, 4)}")
        r = p(f"{rng.randint(1, 3)}*y^2 + x3 + {rng.randint(1, 4)}")
        assert resultant(shared * q, shared * r, y).is_zero()


def test_resultant_distinct_roots():
    res = resultant(p("y - x1"), p("y - x2"), NS.id("y"))
    assert res == p("x1 - x2")
    assert not res.is_zero()


def test_resultant_guard():
    f = p("y^8 + 1")
    g = p("y^7 - 1")
    with pytest.raises(MatrixTooLargeError):
        resultant(f, g, NS.id("y"))


def test_determinant_matches_cofactor_hand_calc():
    mat = PolyMatrix(((p("a"), p("b")), (p("x1"), p("x2"))))
    assert determinant(mat) == p("a*x2 - b*x1")


def test_cofactors_linear_pair():
    f, g = p("y - a"), p("y - b")
    res, u, v = resultant_with_cofactors(f, g, NS.id("y"))
    assert res == p("a - b")
    assert u == p("-1") and v == p("1")
    assert u * f + v * g == res


def test_cofactor_identity_random_pairs():
    # compose/expand oracle: the identity u*f + v*g = res checked symbolically.
    rng = random.Random(7)
    y = NS.id("y")
    for _ in range(30):
        deg_f = rng.randint(1, 6)
        deg_g = rng.randint(1, 6)
        f = Polynomial.monomial(QQ, 1, {y: deg_f})
        g = Polynomial.monomial(QQ, 1, {y: deg_g})
        for k in range(deg_f):
            f = f + Polynomial.monomial(QQ, rng.randint(-4, 4), {y: k})
        for k in range(deg_g):
            g = g + Polynomial.monomial(QQ, rng.randint(-4, 4), {y: k})
        res, u, v = resultant_with_cofactors(f, g, y)
        assert u * f + v * g == res
        assert u.degree_in(y) < max(deg_g, 1)
        assert v.degree_in(y) < max(deg_f, 1)


def test_cofactor_identity_shared_root():
    y = NS.id("y")
    f = p("y - x1") * p("y - a")
    g = p("y - x1") * p("y + b")
    res, u, v = resultant_with_cofactors(f, g, y)
    assert res.is_zero()
    assert u * f + v * g == res

"""The triangular annihilation check against full expansion of p o F."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from annforge import config
from annforge.annihilator import principal_generator, synthesize_gate_lifts
from annforge.circuit import parse_circuit, random_circuit
from annforge.encoding import (
    PolynomialMap,
    annihilates,
    compose_polynomial,
    local_encode,
    parallel_compose,
    triangular_inverse,
)
from annforge.fields import QQ, PrimeField
from annforge.instances import kayal_map
from annforge.ips import EquationSystem, Refutation, system_of, verify_geometric
from annforge.poly import Monomial, Polynomial

from conftest import FIG_TEXT, P

FIELDS = [QQ, PrimeField(7), PrimeField(config.DEFAULT_PRIME)]


def reference_lifts(enc) -> list[Polynomial]:
    """The gate lifts by their recursive definition: h_k = z_{n+k} +
    Lhat(u) op Lhat(w), with Lhat(const) = const, Lhat(input i) = z_i +
    alpha_i and Lhat(j-th gate) = h_j."""
    f = enc.map.field
    gates = enc.circuit.gates
    lhat: dict[int, Polynomial] = {}

    def child(gid: int) -> Polynomial:
        gate = gates[gid]
        if gate.op == "const":
            return Polynomial.constant(f, gate.value)
        if gate.op == "input":
            return Polynomial.variable(f, gate.var) + Polynomial.constant(f, enc.alpha[gate.var])
        return lhat[gid]

    lifts = []
    for k, gid in enumerate(enc.circuit.internal_order):
        gate = gates[gid]
        left, right = child(gate.left), child(gate.right)
        combined = left + right if gate.op == "add" else left * right
        lhat[gid] = Polynomial.variable(f, enc.n + k) + combined
        lifts.append(lhat[gid])
    return lifts


@st.composite
def encodings(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 2))
    s = draw(st.integers(1, 4))
    circuit = random_circuit(n, s, seed=draw(st.integers(0, 10**6)),
                             const_pool=(1, -1, 2), field=field)
    alpha = [draw(st.integers(-3, 3)) for _ in range(n)]
    return local_encode(circuit, alpha, draw(st.integers(-3, 3)))


def scaled(pmap: PolynomialMap, factors) -> PolynomialMap:
    f = pmap.field
    return PolynomialMap(
        outputs=tuple(q.scale(f.normalize(c)) for q, c in zip(pmap.outputs, factors)),
        seed_len=pmap.seed_len,
        seed_names=pmap.seed_names,
    )


def candidates(draw, enc, h) -> list[tuple[Polynomial, bool | None]]:
    """(p, expected verdict or None when only the oracle knows)."""
    f = enc.map.field
    m = enc.out_len
    j, k = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    zj, zk = Polynomial.variable(f, j), Polynomial.variable(f, k)
    c = Polynomial.constant(f, draw(st.sampled_from([1, -2, 3, Fraction(1, 2)])))
    other = Polynomial(f, {
        Monomial.of({draw(st.integers(0, m - 1)): draw(st.integers(1, 2))}): 1,
        Monomial.of({draw(st.integers(0, m - 1)): 1}): draw(st.integers(-3, 3)),
        Monomial(): draw(st.integers(-3, 3)),
    })
    return [
        (h, True),
        (h * h, True),
        (h * zj + Polynomial.constant(f, 1), False),
        (h + c * zj * zk, False),
        (h * other, True),
        (other, None),
        (h + other, None),
    ]


@settings(max_examples=60, deadline=None)
@given(encodings(), st.data())
def test_annihilates_equals_full_expansion(enc, data):
    h = principal_generator(enc).h
    # Scaling outputs by nonzero constants keeps the map triangular with
    # diagonal entries other than one; h itself need not annihilate it.
    factors = [data.draw(st.sampled_from([1, -1, 3, Fraction(-2, 5)]))
               for _ in range(enc.out_len)]
    for pmap in (enc.map, scaled(enc.map, factors)):
        assert triangular_inverse(pmap.outputs, pmap.seed_len) is not None
        for p, expected in candidates(data.draw, enc, h):
            oracle = compose_polynomial(pmap, p).is_zero()
            assert annihilates(p, pmap) == oracle
            if pmap is enc.map and expected is not None:
                assert oracle == expected


@settings(max_examples=60, deadline=None)
@given(encodings())
def test_triangular_inverse_is_the_gate_lifts(enc):
    inverse = triangular_inverse(enc.map.outputs, enc.map.seed_len)
    lifts, count = synthesize_gate_lifts(enc)
    assert list(lifts) == inverse[enc.n:] == reference_lifts(enc)
    f = enc.map.field
    for i, lift in enumerate(inverse):
        assert compose_polynomial(enc.map, lift) == Polynomial.variable(f, i)
    assert count <= 4 * enc.s + 4


def test_non_triangular_maps_take_the_full_compose():
    enc = local_encode(parse_circuit(FIG_TEXT), [2, -1], 3)
    h = principal_generator(enc).h
    doubled = parallel_compose(enc.map, 2)
    kayal = kayal_map(2, 2)
    assert triangular_inverse(kayal.outputs, kayal.seed_len) is None
    assert triangular_inverse(doubled.outputs, doubled.seed_len) is None
    # The second copy's h, on z_{m+1}..z_{2m}.
    m = enc.out_len
    h2 = h.rename_variables({v: v + m for v in range(m)})
    for p in (h, h2, h * h2, h + Polynomial.variable(QQ, m)):
        assert annihilates(p, doubled) \
            == compose_polynomial(doubled, p).is_zero()
    assert annihilates(h2, doubled)
    for relation in ("z1^2 - z2", "z1*z2 - z3"):
        p = P(relation, ["z1", "z2", "z3"])
        assert annihilates(p, kayal) \
            == compose_polynomial(kayal, p).is_zero()


def test_shapes_that_are_not_triangular():
    x = [Polynomial.variable(QQ, i) for i in range(2)]
    one = Polynomial.constant(QQ, 1)
    assert triangular_inverse([x[0]], 2) is None  # fewer outputs than variables
    assert triangular_inverse([x[0] * x[1], x[1]], 2) is None  # v_1 in output 0
    assert triangular_inverse([x[0], x[1] * x[1] + x[0]], 2) is None  # no v_1 term
    assert triangular_inverse([x[0], x[1] + x[1] * x[1]], 2) is None  # v_1^2
    assert triangular_inverse([x[0], x[1] + x[0] * x[1]], 2) is None  # diagonal 1 + v_0
    inverse = triangular_inverse([x[0].scale(3) + one, x[1] - x[0] * x[0]], 2)
    assert inverse == [P("1/3*z1 - 1/3", ["z1", "z2"]),
                       P("z2 + 1/9*z1^2 - 2/9*z1 + 1/9", ["z1", "z2"])]


def test_verify_geometric_on_a_non_triangular_system():
    # x1 - 1 = x1 - 2 = 0 has no solution: (x1 - 1) - (x1 - 2) = 1.  With
    # n_vars = 2 the second equation has no x2 term, so the check expands.
    names = ["x1", "x2"]
    system = EquationSystem(PolynomialMap(
        outputs=(P("x1 - 1", names), P("x1 - 2", names)), seed_len=2, seed_names=tuple(names)))
    assert triangular_inverse(system.equations, system.n_vars) is None
    zs = ["z1", "z2"]
    assert verify_geometric(Refutation("geometric", P("1 - z1 + z2", zs)), system).accepted
    result = verify_geometric(Refutation("geometric", P("1 + z1 - z2", zs)), system)
    assert result.reason == "composition-nonzero"


def test_canonical_refutation_verifies_through_the_triangular_path():
    enc = local_encode(parse_circuit(FIG_TEXT), [2, -1], 5)
    system = system_of(enc.map)
    h = principal_generator(enc).h
    r = Refutation("geometric", h.scale(QQ.inv(h.constant_term())))
    assert verify_geometric(r, system).accepted
    tampered = Refutation("geometric", r.r + P("z1*z2", [f"z{i}" for i in range(1, 8)]))
    assert verify_geometric(tampered, system).reason == "composition-nonzero"

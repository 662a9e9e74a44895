"""The peel and the annihilation check against full expansion of p o F,
and the peel against the former triangular inverse and the former peel."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest
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
    pad,
    parallel_compose,
    peel,
)
from annforge.fields import QQ, PrimeField
from annforge.instances import kayal_chain_map, kayal_map, masser_philippon_system
from annforge.ips import EquationSystem, Refutation, system_of, verify_geometric
from annforge.poly import Monomial, Polynomial

from conftest import FIG_TEXT, P
from peel_reference import reference_peel
from triangular_reference import triangular_inverse

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
        assert pmap.inverse[1] == frozenset(range(pmap.seed_len))
        for p, expected in candidates(data.draw, enc, h):
            oracle = compose_polynomial(pmap, p).is_zero()
            assert annihilates(p, pmap) == oracle
            if pmap is enc.map and expected is not None:
                assert oracle == expected


@settings(max_examples=60, deadline=None)
@given(encodings())
def test_triangular_inverse_is_the_gate_lifts(enc):
    sigma, _ = peel(enc.map.outputs, enc.map.seed_len)
    inverse = [sigma[v] for v in range(enc.map.seed_len)]
    lifts, count = synthesize_gate_lifts(enc)
    assert list(lifts) == inverse[enc.n:] == reference_lifts(enc)
    f = enc.map.field
    for i, lift in enumerate(inverse):
        assert compose_polynomial(enc.map, lift) == Polynomial.variable(f, i)
    assert count <= 4 * enc.s + 4


def test_maps_out_of_seed_order_peel_and_power_sums_expand():
    enc = local_encode(parse_circuit(FIG_TEXT), [2, -1], 3)
    h = principal_generator(enc).h
    doubled = parallel_compose(enc.map, 2)
    kayal = kayal_map(2, 2)
    # Neither is triangular in seed order; the peel pairs every seed
    # variable of the two copies and none of the power sums.
    assert triangular_inverse(kayal.outputs, kayal.seed_len) is None
    assert triangular_inverse(doubled.outputs, doubled.seed_len) is None
    m = enc.out_len
    assert doubled.inverse[1] == frozenset(range(m - 1)) | frozenset(range(m, 2 * m - 1))
    assert kayal.inverse == ({0: Polynomial.variable(QQ, 3), 1: Polynomial.variable(QQ, 4)},
                             frozenset())
    # The second copy's h, on z_{m+1}..z_{2m}.
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
    # Each shape leaves a variable unpaired, and it goes to a fresh id.
    x = [Polynomial.variable(QQ, i) for i in range(2)]
    z = [Polynomial.variable(QQ, i) for i in range(4)]
    one = Polynomial.constant(QQ, 1)
    assert peel([x[0]], 2) == ({0: z[0], 1: z[1]}, frozenset({0}))  # fewer outputs
    assert peel([x[0] * x[1], x[1]], 2) == ({0: z[2], 1: z[1]}, frozenset({1}))
    assert peel([x[0], x[1] * x[1] + x[0]], 2) == ({0: z[0], 1: z[2]}, frozenset({0}))
    assert peel([x[0], x[1] + x[1] * x[1]], 2) == ({0: z[0], 1: z[2]}, frozenset({0}))
    assert peel([x[0], x[1] + x[0] * x[1]], 2) == ({0: z[0], 1: z[2]}, frozenset({0}))
    # Output 1 reads v_1 alone, so it pairs v_1 first; then output 0 pairs v_0.
    sigma, paired = peel([x[0] + x[1], x[1].scale(2) - one], 2)
    assert sigma == {1: P("1/2*z2 + 1/2", ["z1", "z2"]),
                     0: P("z1 - 1/2*z2 - 1/2", ["z1", "z2"])}
    assert paired == frozenset({0, 1})
    sigma, _ = peel([x[0].scale(3) + one, x[1] - x[0] * x[0]], 2)
    assert [sigma[0], sigma[1]] == [P("1/3*z1 - 1/3", ["z1", "z2"]),
                                    P("z2 + 1/9*z1^2 - 2/9*z1 + 1/9", ["z1", "z2"])]


def test_verify_geometric_on_a_non_triangular_system():
    # x1 - 1 = x1 - 2 = 0 has no solution: (x1 - 1) - (x1 - 2) = 1.  With
    # n_vars = 2 no equation reads x2: the first pairs x1, x2 stays unpaired,
    # and the second is checked as T = z1 - 1.
    names = ["x1", "x2"]
    system = EquationSystem(PolynomialMap(
        outputs=(P("x1 - 1", names), P("x1 - 2", names)), seed_len=2, seed_names=tuple(names)))
    assert triangular_inverse(system.equations, system.map.seed_len) is None
    assert system.map.inverse[1] == frozenset({0})
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


@st.composite
def near_triangular_maps(draw):
    """Output j < n is c*v_j + g with c sometimes zero and g mostly over
    v_<j, sometimes over any variable; outputs past n read any variable.
    Coefficients such as 1/2 and -2/3 give a stored denominator other than
    1 over QQ.  The former inverse is None on some of these maps."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    outputs = []
    for j in range(draw(st.integers(max(n - 1, 1), n + 2))):
        diagonal = Monomial.of({j: 1} if j < n else {})
        terms = {diagonal: draw(st.sampled_from([1, 1, 2, -3, 0, Fraction(1, 2),
                                                 Fraction(-2, 3)]))}
        reach = j if j < n and draw(st.integers(0, 4)) else n
        for _ in range(draw(st.integers(0, 3))):
            factors = draw(st.lists(st.integers(0, reach - 1), max_size=2)) if reach else []
            terms[Monomial.of(Counter(factors))] = draw(st.integers(-3, 3) | st.sampled_from(
                [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]))
        outputs.append(Polynomial(field, terms))
    return outputs, n


@settings(max_examples=150, deadline=None)
@given(near_triangular_maps())
def test_peel_equals_the_former_inverse(case):
    outputs, n = case
    inverse = triangular_inverse(outputs, n)
    sigma, paired = peel(outputs, n)
    if inverse is not None:
        assert [sigma[v] for v in range(n)] == inverse
        assert paired == frozenset(range(n))
    # Every paired output maps back to its own z_j, whatever the shape.
    for j in paired:
        assert outputs[j].compose(sigma) == Polynomial.variable(outputs[0].field, j)


@settings(max_examples=150, deadline=None)
@given(near_triangular_maps())
def test_peel_equals_the_former_peel(case):
    # The step over |c| (times c^-1 over F_p) against compose, then scale by 1/c.
    outputs, n = case
    assert peel(outputs, n) == reference_peel(outputs, n)


def derived(pmap: PolynomialMap, draw) -> tuple[PolynomialMap, Polynomial]:
    """pmap with one more output G(F) and the annihilator z_m - G(z)."""
    f, m = pmap.field, pmap.out_len
    a, b, k = (draw(st.integers(0, m - 1)) for _ in range(3))
    c = f.normalize(draw(st.sampled_from([1, -2, 3])))
    outputs = pmap.outputs
    extra = outputs[a] * outputs[b] + outputs[k].scale(c)
    z = [Polynomial.variable(f, j) for j in range(m + 1)]
    grown = PolynomialMap(outputs + (extra,), pmap.seed_len, pmap.seed_names)
    return grown, z[m] - z[a] * z[b] - z[k].scale(c)


def family_case(family: str, draw) -> tuple[PolynomialMap, Polynomial]:
    """A map of ``family`` and one polynomial known to annihilate it."""
    if family in ("kayal", "kayal_chain", "masser_philippon"):
        field = draw(st.sampled_from(FIELDS))
        if family == "kayal":
            n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
            pmap = kayal_map(n, d, field)
            if n >= 2 and d >= 2:
                assert pmap.inverse[1] == frozenset()
        elif family == "kayal_chain":
            pmap = kayal_chain_map(draw(st.integers(3, 4)), draw(st.integers(1, 2)), field)
        else:
            pmap = masser_philippon_system(draw(st.integers(2, 3)), draw(st.integers(2, 3)),
                                           field).map
        return derived(pmap, draw)
    enc = draw(encodings())
    pmap, h, m = enc.map, principal_generator(enc).h, enc.out_len
    if family in ("stretch", "mixed"):
        copies = draw(st.integers(2, 3))
        i = draw(st.integers(0, copies - 1))
        pmap = parallel_compose(pmap, copies)
        h = h.rename_variables({v: v + i * m for v in range(m)})
    if family in ("pad", "mixed"):
        pmap = pad(pmap, pmap.out_len + draw(st.integers(1, 3)))
    if family in ("permute", "mixed"):
        order = draw(st.permutations(range(pmap.out_len)))
        pmap = PolynomialMap(tuple(pmap.outputs[j] for j in order), pmap.seed_len,
                             pmap.seed_names)
        h = h.rename_variables({j: order.index(j) for j in range(pmap.out_len)})
    if family in ("scale", "mixed"):
        factors = [pmap.field.normalize(draw(st.sampled_from([1, -1, 3, Fraction(-2, 5)])))
                   for _ in range(pmap.out_len)]
        pmap = scaled(pmap, factors)
        f = pmap.field
        h = h.substitute({j: Polynomial.variable(f, j).scale(f.inv(factors[j]))
                          for j in h.variables()})
    # Copies, pads, permutations and scalings of an encoding leave no seed
    # variable unpaired.
    assert len(pmap.inverse[1]) == pmap.seed_len
    return pmap, h


FAMILIES = ["stretch", "pad", "permute", "scale", "mixed",
            "kayal", "kayal_chain", "masser_philippon"]


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_annihilates_matches_full_expansion_on_every_family(family, data):
    draw = data.draw
    pmap, a = family_case(family, draw)
    f, m = pmap.field, pmap.out_len
    j, k = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    zj, zk = Polynomial.variable(f, j), Polynomial.variable(f, k)
    other = Polynomial(f, {
        Monomial.of({draw(st.integers(0, m - 1)): draw(st.integers(1, 2))}): 1,
        Monomial.of({draw(st.integers(0, m - 1)): 1}): draw(st.integers(-3, 3)),
        Monomial(): draw(st.integers(-3, 3)),
    })
    one = Polynomial.constant(f, 1)
    for p, expected in ((a, True), (a * other, True), (a * zj + one, False),
                        (a + zj * zk, None), (other, None), (a + other, None)):
        oracle = compose_polynomial(pmap, p).is_zero()
        assert annihilates(p, pmap) == oracle
        if expected is not None:
            assert oracle == expected

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annforge import config
from annforge.annihilator import principal_generator, verify_annihilates
from annforge.circuit import parse_circuit
from annforge.encoding import PolynomialMap, local_encode, pad, parallel_compose
from annforge import ips
from annforge.errors import InvariantError, SupportOverflowError, SystemSatisfiableError
from annforge.fields import QQ, PrimeField
from annforge.instances import det_circuit, masser_philippon_system
from annforge.ips import (
    EquationSystem,
    Refutation,
    canonical_geometric_refutation,
    system_of,
    verify_full_ips,
    verify_geometric,
)
from annforge.poly import Monomial, Namespace, Polynomial

from conftest import SINGLE_ADD_TEXT, P, Z
from division_reference import exact_divide
from ips_reference import reference_verify_full_ips

FIELDS = [QQ, PrimeField(7), PrimeField(config.DEFAULT_PRIME)]


def simple_system():
    # {x1 = 0, x1 - 1 = 0}: plainly unsatisfiable.
    ns = ["x1"]
    pmap = PolynomialMap(outputs=(P("x1", ns), P("x1 - 1", ns)), seed_len=1, seed_names=("x1",))
    return EquationSystem(pmap, name="x_and_x_minus_one")


# -- geometric verification -----------------------------------------------------


def test_geometric_accept_canonical(single_add_circuit):
    enc = local_encode(single_add_circuit, [0, 0], 1)
    ref = canonical_geometric_refutation(enc)
    # h(0) = beta - f(alpha) = 1, so r = h itself.
    assert ref.r == Z("z4 - z3 - z1 - z2 + 1", 4)
    result = verify_geometric(ref, system_of(enc.map))
    assert result.accepted
    assert result.degree == 1


def test_geometric_reject_unscaled_constant_term(single_add_circuit):
    enc = local_encode(single_add_circuit, [0, 0], 2)  # h(0) = 2 != 1
    cert = principal_generator(enc)
    result = verify_geometric(Refutation("geometric", cert.h), system_of(enc.map))
    assert not result.accepted
    assert result.reason == "constant-term"


def test_geometric_reject_constant_one():
    system = simple_system()
    result = verify_geometric(
        Refutation("geometric", Polynomial.constant(QQ, 1)), system
    )
    assert not result.accepted
    assert result.reason == "composition-nonzero"


def test_geometric_support_overflow():
    system = simple_system()
    with pytest.raises(SupportOverflowError):
        verify_geometric(Refutation("geometric", Z("z3", 3)), system)


def test_geometric_refutation_of_simple_system():
    # r = 1 - z1 + z2: r(x1, x1-1) = 1 - x1 + x1 - 1 = 0, r(0,0) = 1.
    system = simple_system()
    r = Z("1 - z1 + z2", 2)
    assert verify_geometric(Refutation("geometric", r), system).accepted


# -- full IPS ---------------------------------------------------------------------


def test_full_ips_hand_example():
    # r = z1 - z2 over (x1; z1, z2): r(x, f) = x1 - (x1 - 1) = 1, r(x, 0) = 0.
    system = simple_system()
    ns = ["x1", "z1", "z2"]
    r = P("z1 - z2", ns)
    assert verify_full_ips(Refutation("full", r), system).accepted


def test_full_ips_rejects_geometric_refutation_verbatim():
    # Definition mismatch: a geometric refutation composes to 0, not 1.
    system = simple_system()
    ns = ["x1", "z1", "z2"]
    r_geo_as_full = P("1 - z1 + z2", ns)  # constant term breaks r(x, 0) = 0
    result = verify_full_ips(Refutation("full", r_geo_as_full), system)
    assert not result.accepted


def test_full_ips_accepts_standard_embedding():
    # 1 - r_geo(z) is the standard Geometric -> Full embedding.
    system = simple_system()
    ns = ["x1", "z1", "z2"]
    embedded = P("z1 - z2", ns)  # = 1 - (1 - z1 + z2)
    assert verify_full_ips(Refutation("full", embedded), system).accepted


def test_full_ips_rejects_constant_one():
    system = simple_system()
    ns = ["x1", "z1", "z2"]
    result = verify_full_ips(Refutation("full", P("1", ns)), system)
    assert not result.accepted
    assert result.reason == "zero-substitution-nonzero"


def test_full_ips_masser_philippon_hand_refutation():
    # x2^2 * x1^2 + (1 + x1*x2)(1 - x1*x2) = 1 gives the certificate
    # r = z1*x2^2 + z2*(1 + x1*x2).
    system = masser_philippon_system(2, 2)
    ns = ["x1", "x2", "z1", "z2"]
    r = P("z1*x2^2 + z2 + z2*x1*x2", ns)
    result = verify_full_ips(Refutation("full", r), system)
    assert result.accepted


def _random_poly(draw, f, ids: int, terms: int) -> Polynomial:
    """``terms`` random terms over the ids 0..ids-1, small coefficients."""
    out = Polynomial.zero(f)
    for _ in range(terms):
        exps = {draw(st.integers(0, ids - 1)): draw(st.integers(1, 2))
                for _ in range(draw(st.integers(0, 2)))}
        out = out + Polynomial.monomial(f, f.normalize(draw(st.integers(-3, 3))), exps)
    return out


@st.composite
def full_cases(draw):
    """A system over x1..xn and a candidate Full refutation r(x, z).  Half
    the systems start with x1 and x1 - 1, refuted by z1 - z2; r is that,
    plus syzygies z_j*f_k - z_k*f_j, which compose to zero, plus random
    terms, which may be constant, read x alone or read z."""
    f = draw(st.sampled_from(FIELDS))
    n, m = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    eqs = [_random_poly(draw, f, n, draw(st.integers(1, 3))) for _ in range(m)]
    eqs = [e if e else Polynomial.variable(f, 0) for e in eqs]
    z = [Polynomial.variable(f, n + j) for j in range(m)]
    r = Polynomial.zero(f)
    if draw(st.booleans()):
        x1 = Polynomial.variable(f, 0)
        eqs[:2] = [x1, x1 - Polynomial.constant(f, 1)]
        r = z[0] - z[1]
    for _ in range(draw(st.integers(0, 2))):
        j, k = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        r = r + z[j] * eqs[k] - z[k] * eqs[j]
    r = r + _random_poly(draw, f, n + m, draw(st.integers(0, 2)))
    names = tuple(f"x{i}" for i in range(1, n + 1))
    return EquationSystem(PolynomialMap(tuple(eqs), n, names)), Refutation("full", r)


@settings(max_examples=150, deadline=None)
@given(full_cases())
def test_full_ips_equals_the_former_check(case):
    system, ref = case
    assert verify_full_ips(ref, system) == reference_verify_full_ips(ref, system)


@pytest.mark.parametrize("f", FIELDS, ids=repr)
@pytest.mark.parametrize("text", ["1", "0", "3", "z1 - z2 + x1", "z1 - z2 + x1^2 - 2",
                                  "z1 - z2 + x1*z1", "z1 - z2 + x1*z2 - x1*z1 + z1*z2"])
def test_full_ips_equals_the_former_check_by_hand(f, text):
    # Constants, x-only terms and z terms over the simple system.
    x1 = Polynomial.variable(f, 0)
    system = EquationSystem(PolynomialMap((x1, x1 - Polynomial.constant(f, 1)), 1, ("x1",)))
    ref = Refutation("full", P(text, ["x1", "z1", "z2"], f))
    assert verify_full_ips(ref, system) == reference_verify_full_ips(ref, system)


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_full_ips_masser_philippon_equals_the_former_check(f):
    system = masser_philippon_system(2, 2, f)
    for text in ("z1*x2^2 + z2 + z2*x1*x2", "z1*x2^2 + z2", "z1*x2^2 + z2 + z2*x1*x2 + x1"):
        ref = Refutation("full", P(text, ["x1", "x2", "z1", "z2"], f))
        result = verify_full_ips(ref, system)
        assert result == reference_verify_full_ips(ref, system)
        assert result.accepted == (text == "z1*x2^2 + z2 + z2*x1*x2")


# -- canonical refutations ----------------------------------------------------------


def test_det2_identity_canonical_refutation():
    det2 = det_circuit(2)
    enc = local_encode(det2, [1, 0, 0, 1], 0)
    ref = canonical_geometric_refutation(enc)
    system = system_of(enc.map)
    result = verify_geometric(ref, system)
    assert result.accepted
    # r = (-1/det A) * h with det A = 1.
    cert = principal_generator(enc)
    assert ref.r == cert.h.scale(-1)
    # degree <= circuit degree bound + 1
    assert result.degree <= 3


def test_det2_singular_matrix_satisfiable():
    det2 = det_circuit(2)
    with pytest.raises(SystemSatisfiableError):
        canonical_geometric_refutation(local_encode(det2, [1, 1, 1, 1], 0))


def test_constant_term_cross_check_is_a_typed_error(monkeypatch, single_add_circuit):
    # h(0) = beta - f(alpha) is checked against a second evaluation route.
    monkeypatch.setattr(ips, "evaluate_circuit", lambda circuit, point: 0)
    with pytest.raises(InvariantError):
        canonical_geometric_refutation(local_encode(single_add_circuit, [1, 2], 5))


def test_refutation_divides_back_to_h(single_add_circuit):
    enc = local_encode(single_add_circuit, [0, 0], 5)
    cert = principal_generator(enc)
    ref = canonical_geometric_refutation(enc)
    c0 = cert.h.constant_term()
    ratio = exact_divide(ref.r.scale(c0), cert.h)
    assert ratio == Polynomial.constant(QQ, 1)


def test_accept_implies_annihilator_with_unit_constant(single_add_circuit):
    enc = local_encode(single_add_circuit, [1, 2], 9)
    ref = canonical_geometric_refutation(enc)
    assert verify_annihilates(ref.r, enc.map)
    assert ref.r.constant_term() == 1


def test_tampered_refutations_rejected():
    det2 = det_circuit(2)
    enc = local_encode(det2, [1, 0, 0, 1], 0)
    ref = canonical_geometric_refutation(enc)
    system = system_of(enc.map)
    rng = random.Random(2024)
    monos = [m for m, _ in ref.r.terms()]
    for k in range(50):
        target = rng.choice(monos) if k % 2 == 0 else Monomial.of(
            {rng.randrange(enc.out_len): rng.randint(1, 2)}
        )
        delta = Polynomial(QQ, {target: QQ.normalize(rng.choice([1, -1, 2]))})
        tampered = ref.r + delta
        assert not verify_geometric(Refutation("geometric", tampered), system).accepted


# -- systems from maps ---------------------------------------------------------------


def test_system_of_worked_example(fig_encoding):
    system = system_of(fig_encoding.map)
    assert len(system.equations) == 7
    assert system.map.seed_len == 6
    assert system.equations == fig_encoding.map.outputs


def test_system_of_padded_map(fig_encoding):
    padded = pad(fig_encoding.map, 9)
    system = system_of(padded)
    assert len(system.equations) == 9
    assert system.equations[-1] == Polynomial.variable(QQ, 7)


def test_system_of_parallel_map(fig_encoding):
    composed = parallel_compose(fig_encoding.map, 2)
    system = system_of(composed)
    assert len(system.equations) == 14
    first_block_vars = set(range(6))
    for eq in system.equations[:7]:
        assert eq.variables() <= first_block_vars
    for eq in system.equations[7:]:
        assert eq.variables() <= set(range(6, 12))


def test_system_map_is_shared_or_built(fig_encoding):
    # system_of keeps the map it came from, so its triangular inverse is
    # built once for both; the equations and names read through the map.
    system = system_of(fig_encoding.map)
    assert system.map is fig_encoding.map
    plain = simple_system()
    assert plain.map.outputs == plain.equations and plain.map.seed_len == 1
    assert plain.map.seed_names == ("x1",)

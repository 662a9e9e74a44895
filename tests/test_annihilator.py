import dataclasses
import random

import pytest

from annforge.annihilator import (
    annihilator_basis_search,
    count_monomials,
    decompose,
    extract_hard_multiple,
    monomials_up_to,
    principal_generator,
    synthesize_gate_lifts,
    verify_annihilates,
)
from annforge.circuit import evaluate_circuit, expand, metrics, parse_circuit, random_circuit
from annforge.encoding import compose_polynomial, local_encode
from annforge.errors import (
    DecompositionMismatchError,
    NotAnAnnihilatorError,
    SearchSpaceTooLargeError,
)
from annforge.fields import QQ
from annforge.instances import kayal_map
from annforge.poly import Namespace, Polynomial

from conftest import SINGLE_ADD_TEXT, P, Z
from division_reference import exact_divide


def test_gate_lifts_worked_example(fig_circuit):
    # alpha = (4, 9): h1 = z3 - (z2 + a2), h2 = z4 + (z1 + a1) + (z2 + a2),
    # h3 = z5 + (z1 + a1) + h1, h4 = z6 + h2*h3.
    enc = local_encode(fig_circuit, [4, 9], 0)
    lifts, _ = synthesize_gate_lifts(enc)
    zs = Namespace.outputs(7)
    h1 = Z("z3 - z2 - 9", 7)
    h2 = Z("z4 + z1 + 4 + z2 + 9", 7)
    h3 = Z("z5 + z1 + 4", 7) + h1
    h4 = Z("z6", 7) + h2 * h3
    assert list(lifts) == [h1, h2, h3, h4]


def test_gate_lift_single_add():
    enc = local_encode(parse_circuit(SINGLE_ADD_TEXT), [0, 0], 0)
    lifts, count = synthesize_gate_lifts(enc)
    assert list(lifts) == [Z("z3 + z1 + z2", 4)]
    assert count <= 4 * 1 + 4


def test_lift_identities_random_circuits():
    # h_i composed with the map recovers the seed variable y_i, symbolically.
    rng = random.Random(99)
    for trial in range(100):
        n = rng.randint(1, 4)
        s = rng.randint(1, 20)
        c = random_circuit(n, s, seed=trial, const_pool=(1, -1, 2))
        alpha = [rng.randint(-2, 2) for _ in range(n)]
        enc = local_encode(c, alpha, rng.randint(-2, 2))
        lifts, _ = synthesize_gate_lifts(enc)
        for i, lift in enumerate(lifts, start=1):
            composed = compose_polynomial(enc.map, lift)
            assert composed == Polynomial.variable(QQ, n + i - 1)


def test_principal_generator_worked_example_exact(fig_cert):
    # The published expansion, negated (we follow the monic-in-z7 form).
    paper_h = Z(
        "z1^2 - z2^2 + z1*z3 + z2*z3 + z1*z4 - z2*z4 + z3*z4 + z1*z5 + z2*z5"
        " + z4*z5 + z6 - z7",
        7,
    )
    assert fig_cert.h == -paper_h


def test_principal_generator_single_add():
    enc = local_encode(parse_circuit(SINGLE_ADD_TEXT), [0, 0], 0)
    cert = principal_generator(enc)
    assert cert.h == Z("z4 - z3 - z1 - z2", 4)


def test_constant_term_is_beta_minus_value():
    # evaluate_circuit oracle, feeding the ips module's normalization.
    rng = random.Random(311)
    for trial in range(40):
        n = rng.randint(1, 4)
        c = random_circuit(n, rng.randint(1, 15), seed=trial + 900, const_pool=(1, 2))
        alpha = [rng.randint(-3, 3) for _ in range(n)]
        beta = QQ.normalize(rng.randint(-3, 3))
        cert = principal_generator(local_encode(c, alpha, beta))
        assert cert.h.constant_term() == beta - evaluate_circuit(c, alpha)


def test_h_is_monic_linear_in_last_variable():
    rng = random.Random(17)
    for trial in range(40):
        n = rng.randint(1, 5)
        s = rng.randint(1, 18)
        c = random_circuit(n, s, seed=trial + 50, const_pool=(1, -1))
        enc = local_encode(c, [rng.randint(-2, 2) for _ in range(n)], rng.randint(-2, 2))
        h = principal_generator(enc).h
        last = n + s
        assert h.degree_in(last) == 1
        assert h.coefficients_in(last)[1] == Polynomial.constant(QQ, 1)


def test_lift_gate_count_linear_bound():
    rng = random.Random(4)
    for trial in range(60):
        n = rng.randint(1, 6)
        s = rng.randint(1, 25)
        c = random_circuit(n, s, seed=trial + 2000, const_pool=(1, -1, 2))
        enc = local_encode(c, [rng.randint(-2, 2) for _ in range(n)], 0)
        cert = principal_generator(enc)
        assert cert.lift_gate_count <= 4 * s + 4


# -- verification ----------------------------------------------------------------


def test_verify_annihilates_h(fig_encoding, fig_cert):
    assert verify_annihilates(fig_cert.h, fig_encoding.map)


def test_verify_rejects_projection_when_alpha_nonzero(fig_circuit):
    enc = local_encode(fig_circuit, [1, 0], 0)
    assert not verify_annihilates(Z("z1", 7), enc.map)


def test_ideal_closure(fig_encoding, fig_cert):
    rng = random.Random(8)
    for _ in range(10):
        r = Polynomial.zero(QQ)
        for _ in range(rng.randint(1, 4)):
            exps = {rng.randrange(7): rng.randint(0, 2)}
            r = r + Polynomial.monomial(QQ, rng.randint(-3, 3), exps)
        assert verify_annihilates(fig_cert.h * r, fig_encoding.map)


# -- decomposition -----------------------------------------------------------------


def test_decompose_worked_example(fig_cert):
    dec = decompose(fig_cert)
    assert dec.f_shifted == Z("z1^2 - z2^2", 7)
    paper_g = Z(
        "z1*z3 + z2*z3 + z1*z4 - z2*z4 + z3*z4 + z1*z5 + z2*z5 + z4*z5 + z6", 7
    )
    assert dec.g == -paper_g  # same global sign convention as h


def test_decompose_worked_example_nonzero_alpha(fig_circuit):
    # With alpha = (a1, a2) the published g gains the linear alpha terms.
    a1, a2 = 4, 9
    enc = local_encode(fig_circuit, [a1, a2], 3)
    dec = decompose(principal_generator(enc))
    paper_g = Z(
        f"z1*z3 + z2*z3 + z1*z4 - z2*z4 + z3*z4 + z1*z5 + z2*z5 + z4*z5"
        f" + {a1 + a2}*z3 + {a1 - a2}*z4 + {a1 + a2}*z5 + z6",
        7,
    )
    assert dec.g == -paper_g


def test_decompose_single_add():
    enc = local_encode(parse_circuit(SINGLE_ADD_TEXT), [0, 0], 0)
    cert = principal_generator(enc)
    dec = decompose(cert)
    assert dec.g == Z("-z3", 4)
    restricted = cert.h.substitute({2: Polynomial.zero(QQ)})
    assert restricted == Z("z4 - z1 - z2", 4)


def test_decompose_rejects_a_term_outside_the_gate_ideal(fig_cert):
    # z1 survives z3 = ... = z6 = 0, so g leaves <z3, ..., z6>.
    tampered = dataclasses.replace(fig_cert, h=fig_cert.h + Z("z1", 7))
    with pytest.raises(DecompositionMismatchError):
        decompose(tampered)


def test_decompose_restriction_identity_random():
    rng = random.Random(77)
    checked = 0
    seed = 0
    while checked < 60:
        seed += 1
        n = rng.randint(1, 5)
        c = random_circuit(n, rng.randint(1, 15), seed=seed + 3000, const_pool=(1, -1))
        if metrics(c).degree_bound > 8:
            continue
        alpha = [rng.randint(-2, 2) for _ in range(n)]
        beta = rng.randint(-2, 2)
        enc = local_encode(c, alpha, beta)
        decompose(principal_generator(enc))  # raises on any mismatch
        checked += 1


# -- kernel search -------------------------------------------------------------------


def test_monomial_enumeration_counts():
    assert len(monomials_up_to(3, 2)) == count_monomials(3, 2) == 10
    assert [m.degree for m in monomials_up_to(2, 1)] == [0, 1, 1]


def test_search_worked_example(fig_encoding, fig_cert):
    assert annihilator_basis_search(fig_encoding.map, 1) == []
    basis = annihilator_basis_search(fig_encoding.map, 2)
    assert len(basis) == 1
    ratio = exact_divide(basis[0], fig_cert.h)
    assert ratio is not None and ratio.degree() == 0


def test_search_certificates_and_principality(fig_encoding, fig_cert):
    # Every kernel element annihilates and is divisible by h at D >= deg h.
    for d in (2, 3):
        for q in annihilator_basis_search(fig_encoding.map, d):
            assert verify_annihilates(q, fig_encoding.map)
            assert exact_divide(q, fig_cert.h) is not None


def test_search_kayal_degree_gap():
    pmap = kayal_map(2, 2)
    assert annihilator_basis_search(pmap, 3) == []
    found = annihilator_basis_search(pmap, 4)
    assert found
    for q in found:
        assert verify_annihilates(q, pmap)


def test_search_space_guard(fig_encoding, monkeypatch):
    monkeypatch.setenv("AF_MONOMIAL_CEILING", "100")
    with pytest.raises(SearchSpaceTooLargeError):
        annihilator_basis_search(fig_encoding.map, 12)


# -- hard-multiple extraction ----------------------------------------------------------


def test_extract_worked_example(fig_encoding, fig_cert):
    out = extract_hard_multiple(fig_cert.h, fig_encoding)
    assert out == Z("-z1^2 + z2^2", 7)


def test_extract_shifted_multiple(fig_encoding, fig_cert):
    f_minus_beta = Z("z1^2 - z2^2", 7)
    out = extract_hard_multiple(fig_cert.h * Z("z1 + 1", 7), fig_encoding)
    assert exact_divide(out, f_minus_beta) is not None


def test_extract_gate_variable_multiple_shifts_w_power(fig_encoding, fig_cert):
    f_minus_beta = Z("z1^2 - z2^2", 7)
    out = extract_hard_multiple(fig_cert.h * Z("z6", 7), fig_encoding)
    assert exact_divide(out, f_minus_beta) is not None
    # The multiplier z6 itself survives: result is -(f - beta) * z6.
    assert out == -f_minus_beta * Z("z6", 7)


def test_extract_rejects_non_annihilator(fig_encoding):
    with pytest.raises(NotAnAnnihilatorError):
        extract_hard_multiple(Z("z1 + 1", 7), fig_encoding)
    with pytest.raises(NotAnAnnihilatorError):
        extract_hard_multiple(Polynomial.zero(QQ), fig_encoding)


def test_extract_divisibility_many_multipliers(fig_circuit):
    # 50 random degree-<=2 multipliers on an encoding with nonzero alpha.
    enc = local_encode(fig_circuit, [2, -1], 5)
    cert = principal_generator(enc)
    fpoly = expand(fig_circuit)  # over x ids = z ids 0..1
    f_minus_beta = fpoly - Polynomial.constant(QQ, 5)
    rng = random.Random(123)
    done = 0
    while done < 50:
        r = Polynomial.zero(QQ)
        for _ in range(rng.randint(1, 4)):
            exps = {}
            for _ in range(rng.randint(0, 2)):
                exps[rng.randrange(7)] = exps.get(rng.randrange(7), 0) + 1
            r = r + Polynomial.monomial(QQ, rng.randint(-3, 3), exps)
        if r.is_zero():
            continue
        out = extract_hard_multiple(cert.h * r, enc)
        assert not out.is_zero()
        assert exact_divide(out, f_minus_beta) is not None
        done += 1

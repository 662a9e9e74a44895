"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Time limits are asserted with monotonic wall clocks.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from annforge.annihilator import (
    annihilator_basis_search,
    decompose,
    extract_hard_multiple,
    principal_generator,
    verify_annihilates,
)
from annforge.circuit import (
    CircuitBuilder,
    expand,
    metrics,
    parse_circuit,
    random_circuit,
)
from annforge.encoding import compose_polynomial, local_encode, parallel_compose
from annforge.errors import SystemSatisfiableError
from annforge.fields import QQ
from annforge.instances import det_circuit, encode_3cnf, kayal_map
from annforge.ips import (
    Refutation,
    canonical_geometric_refutation,
    system_of,
    verify_geometric,
)
from annforge.linalg import jacobian, rank_random_eval, resultant, resultant_with_cofactors
from annforge.pit import sz_pit
from annforge.poly import Monomial, Namespace, Polynomial

from conftest import FIG_TEXT, P, Z, seed_ns
from division_reference import exact_divide


@contextmanager
def criterion(number: int, description: str, limit_seconds: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}", flush=True)
        raise
    elapsed = time.monotonic() - start
    if limit_seconds is not None and elapsed >= limit_seconds:
        print(f"[FAIL] criterion {number}: {description} "
              f"({elapsed:.2f}s over {limit_seconds}s limit)", flush=True)
        raise AssertionError(f"criterion {number} exceeded {limit_seconds}s: {elapsed:.2f}s")
    suffix = f" ({elapsed:.2f}s)" if limit_seconds is not None else ""
    print(f"[PASS] criterion {number}: {description}{suffix}", flush=True)


def test_criterion_1_worked_example_golden():
    with criterion(1, "worked-example golden reproduction", 1.0):
        circuit = parse_circuit(FIG_TEXT)
        enc = local_encode(circuit, [0, 0], 0)
        ns = seed_ns(2, 4)
        assert list(enc.map.outputs) == [
            P("x1", ns), P("x2", ns), P("y1 + x2", ns), P("y2 - x1 - x2", ns),
            P("y3 - x1 - y1", ns), P("y4 - y2*y3", ns), P("y4", ns),
        ]
        cert = principal_generator(enc)
        published = Z(
            "z1^2 - z2^2 + z1*z3 + z2*z3 + z1*z4 - z2*z4 + z3*z4 + z1*z5"
            " + z2*z5 + z4*z5 + z6 - z7",
            7,
        )
        # Documented global sign: our h is monic in z7, the published
        # expansion is its negation.
        assert cert.h == -published


def test_criterion_2_annihilation_identity_200_circuits():
    with criterion(2, "h annihilates its encoding on 200 random circuits", 60.0):
        for seed in range(1, 201):
            rng = random.Random(seed * 7919)
            n = rng.randint(1, 6)
            s = rng.randint(1, 25)
            c = random_circuit(n, s, seed=seed, const_pool=(1, -1, 2))
            alpha = [rng.randint(-2, 2) for _ in range(n)]
            beta = rng.randint(-2, 2)
            enc = local_encode(c, alpha, beta)
            cert = principal_generator(enc)
            assert verify_annihilates(cert.h, enc.map), f"seed {seed}"


def test_criterion_3_decomposition_identity_100_circuits():
    with criterion(3, "restriction of h equals z_{n+s+1} - f(z+alpha) + beta", 120.0):
        rng = random.Random(61)
        checked = 0
        seed = 0
        while checked < 100:
            seed += 1
            n = rng.randint(1, 6)
            s = rng.randint(1, 20)
            c = random_circuit(n, s, seed=seed + 40_000, const_pool=(1, -1, 2))
            if metrics(c).degree_bound > 8:
                continue
            alpha = [rng.randint(-2, 2) for _ in range(n)]
            beta = rng.randint(-2, 2)
            enc = local_encode(c, alpha, beta)
            cert = principal_generator(enc)
            # decompose raises DecompositionMismatchError on any violation;
            # re-assert the restriction identity explicitly.
            dec = decompose(cert)
            zero = Polynomial.zero(QQ)
            restricted = cert.h.substitute({n + j: zero for j in range(s)})
            expected = (
                Polynomial.variable(QQ, n + s)
                - dec.f_shifted
                + Polynomial.constant(QQ, beta)
            )
            assert restricted == expected, f"seed {seed}"
            checked += 1


def test_criterion_4_principality_at_desk_scale():
    with criterion(4, "kernel search: dim 0 at degree 1, dim 1 = <h> at degree 2", 10.0):
        enc = local_encode(parse_circuit(FIG_TEXT), [0, 0], 0)
        cert = principal_generator(enc)
        assert annihilator_basis_search(enc.map, 1) == []
        basis = annihilator_basis_search(enc.map, 2)
        assert len(basis) == 1
        ratio = exact_divide(basis[0], cert.h)
        assert ratio is not None and ratio.degree() == 0


def test_criterion_5_kayal_degree_bound():
    with criterion(5, "power-sum map n=2 d=2: no annihilator below degree 4", 30.0):
        pmap = kayal_map(2, 2)
        assert annihilator_basis_search(pmap, 3) == []
        found = annihilator_basis_search(pmap, 4)
        assert found
        for q in found:
            assert verify_annihilates(q, pmap)


def test_criterion_6_jacobian_triangular_rank():
    with criterion(6, "Jacobian rank n+s on 50 random encodings, 0 failures"):
        rng = random.Random(3001)
        failures = 0
        for seed in range(50):
            n = rng.randint(1, 6)
            s = rng.randint(1, 15)
            c = random_circuit(n, s, seed=seed + 50_000, const_pool=(1, -1))
            enc = local_encode(c, [rng.randint(-2, 2) for _ in range(n)], 0)
            mat = jacobian(list(enc.map.outputs[: n + s]), list(range(n + s)))
            rank = rank_random_eval(mat, trials=2, p=2**61 - 1, seed=seed)
            if rank != n + s:
                failures += 1
        assert failures == 0


def test_criterion_7_resultant_suite():
    with criterion(7, "resultant values, planted factors, cofactor identity"):
        ns = Namespace(["y", "a", "b", "x1", "x2"])
        y = ns.id("y")
        f = P("y - a", ns)
        g = P("y - b", ns)
        assert resultant(f, g, y) == P("a - b", ns)

        rng = random.Random(909)
        for _ in range(20):
            shared = P("y - x1", ns) if rng.random() < 0.5 else P("y + x2", ns)
            q = shared * P(f"y + {rng.randint(1, 4)}*x2", ns)
            r = shared * P(f"{rng.randint(1, 3)}*y + x1 + {rng.randint(1, 5)}", ns)
            assert resultant(q, r, y).is_zero()

        for trial in range(30):
            rng2 = random.Random(trial)
            deg_f = rng2.randint(1, 6)
            deg_g = rng2.randint(1, 6)
            fp = Polynomial.monomial(QQ, rng2.randint(1, 4), {y: deg_f})
            gp = Polynomial.monomial(QQ, rng2.randint(1, 4), {y: deg_g})
            for k in range(deg_f):
                fp = fp + Polynomial.monomial(QQ, rng2.randint(-5, 5), {y: k})
            for k in range(deg_g):
                gp = gp + Polynomial.monomial(QQ, rng2.randint(-5, 5), {y: k})
            res, u, v = resultant_with_cofactors(fp, gp, y)
            assert u * fp + v * gp == res


def test_criterion_8_schwartz_zippel_behavior():
    with criterion(8, "single-trial detection >= 0.4 on 100 nonzero circuits; "
                      "zero circuits always Zero"):
        rng = random.Random(8080)
        hits = 0
        total = 0
        seed = 0
        while total < 100:
            seed += 1
            n = rng.randint(1, 5)
            c = random_circuit(n, rng.randint(1, 10), seed=seed + 60_000,
                               const_pool=(1, -1, 2))
            if metrics(c).degree_bound > 8 or expand(c).is_zero():
                continue
            total += 1
            if sz_pit(c, trials=1, seed=seed).verdict == "nonzero":
                hits += 1
        assert hits / total >= 0.5 - 0.1

        b = CircuitBuilder(QQ, 1, name="zero")
        b.add(b.input(0), b.mul(b.const(-1), b.input(0)))
        zero_circuit = b.build()
        for s in range(25):
            assert sz_pit(zero_circuit, trials=4, seed=s).verdict == "zero"


def test_criterion_9_geometric_ips_end_to_end():
    with criterion(9, "det2 refutation accepted; singular matrix satisfiable; "
                      "50 tamperings rejected"):
        det2 = det_circuit(2)
        enc = local_encode(det2, [1, 0, 0, 1], 0)
        ref = canonical_geometric_refutation(enc)
        system = system_of(enc.map)
        assert verify_geometric(ref, system).accepted

        with pytest.raises(SystemSatisfiableError):
            canonical_geometric_refutation(local_encode(det2, [1, 1, 1, 1], 0))

        rng = random.Random(515151)
        monos = [m for m, _ in ref.r.terms()]
        for k in range(50):
            if k % 2 == 0:
                target = rng.choice(monos)
            else:
                target = Monomial.of({rng.randrange(enc.out_len): rng.randint(1, 2)})
            delta = Polynomial(QQ, {target: QQ.normalize(rng.choice([1, -1, 2, -3]))})
            tampered = Refutation("geometric", ref.r + delta)
            assert not verify_geometric(tampered, system).accepted, f"tamper {k}"


def test_criterion_10_hard_multiple_extraction():
    with criterion(10, "extraction divisible by f - beta for 50 multipliers"):
        circuit = parse_circuit(FIG_TEXT)
        enc = local_encode(circuit, [2, -1], 5)
        cert = principal_generator(enc)
        f_minus_beta = Z("z1^2 - z2^2 - 5", 7)
        rng = random.Random(424242)
        done = 0
        while done < 50:
            r = Polynomial.zero(QQ)
            for _ in range(rng.randint(1, 4)):
                exps = {}
                for _ in range(rng.randint(0, 2)):
                    v = rng.randrange(7)
                    exps[v] = exps.get(v, 0) + 1
                r = r + Polynomial.monomial(QQ, rng.randint(-3, 3), exps)
            if r.is_zero() or r.degree() > 2:
                continue
            out = extract_hard_multiple(cert.h * r, enc)
            assert not out.is_zero()
            assert exact_divide(out, f_minus_beta) is not None
            done += 1


def test_criterion_11_cnf_translation_exhaustive():
    with criterion(11, "3CNF translation equivalence, 20 formulas, n <= 10"):
        rng = random.Random(1111)
        for _ in range(20):
            n = rng.randint(4, 10)
            m = rng.randint(1, 30)
            clauses = []
            for _ in range(m):
                vs = rng.sample(range(1, n + 1), 3)
                clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
            system = encode_3cnf(clauses, n)

            def satisfied(assignment) -> bool:
                return all(
                    any((assignment[abs(lit) - 1] == 1) == (lit > 0) for lit in clause)
                    for clause in clauses
                )

            for assignment in itertools.product([0, 1], repeat=n):
                vanishes = all(
                    eq.evaluate(list(assignment)) == 0 for eq in system.equations
                )
                assert vanishes == satisfied(assignment)


def test_criterion_12_stretch_composition():
    with criterion(12, "3-fold parallel composition arithmetic and block "
                       "annihilation"):
        enc = local_encode(parse_circuit(FIG_TEXT), [0, 0], 0)
        cert = principal_generator(enc)
        composed = parallel_compose(enc.map, 3)
        ell, out = enc.map.seed_len, enc.map.out_len
        assert composed.seed_len == 3 * ell
        assert composed.out_len == 3 * out
        assert composed.stretch == 3 * (out - ell)
        assert composed.degree == enc.map.degree
        for block in range(3):
            renamed = cert.h.rename_variables(
                {v: v + block * out for v in range(out)}
            )
            assert compose_polynomial(composed, renamed).is_zero()

import dataclasses
import random
from fractions import Fraction

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from annforge import config
from annforge.annihilator import annihilator_basis_search, principal_generator
from annforge.circuit import evaluate_circuit, parse_circuit, random_circuit
from annforge.encoding import (
    LocalEncoding,
    PolynomialMap,
    compose_polynomial,
    local_encode,
    pad,
    parallel_compose,
)
from annforge.errors import BudgetExceededError, CircuitError, InputError, SupportOverflowError
from annforge.fields import QQ, PrimeField
from annforge.poly import Namespace, Polynomial
from annforge.serialize import encoding_to_json, dumps

from conftest import SINGLE_ADD_TEXT, P, Z, seed_ns
from division_reference import exact_divide
from encoding_reference import reference_local_encode

FIELDS = [QQ, PrimeField(7), PrimeField(config.DEFAULT_PRIME)]


def test_fig_encoding_outputs_at_general_point(fig_circuit):
    # The worked example with alpha = (3, 5), beta = 7.
    enc = local_encode(fig_circuit, [3, 5], 7)
    ns = seed_ns(2, 4)
    expected = [
        P("x1 - 3", ns),
        P("x2 - 5", ns),
        P("y1 + x2", ns),
        P("y2 - x1 - x2", ns),
        P("y3 - x1 - y1", ns),
        P("y4 - y2*y3", ns),
        P("y4 - 7", ns),
    ]
    assert list(enc.map.outputs) == expected


def test_fig_encoding_outputs_at_zero(fig_encoding):
    ns = seed_ns(2, 4)
    expected = [
        P("x1", ns),
        P("x2", ns),
        P("y1 + x2", ns),
        P("y2 - x1 - x2", ns),
        P("y3 - x1 - y1", ns),
        P("y4 - y2*y3", ns),
        P("y4", ns),
    ]
    assert list(fig_encoding.map.outputs) == expected


def test_single_add_encoding():
    c = parse_circuit(SINGLE_ADD_TEXT)
    enc = local_encode(c, [0, 0], 0)
    ns = seed_ns(2, 1)
    assert list(enc.map.outputs) == [
        P("x1", ns),
        P("x2", ns),
        P("y1 - x1 - x2", ns),
        P("y1", ns),
    ]


def test_const_children_fold():
    c = parse_circuit("circuit t\ninputs\ng1 = mul 2 3\noutput g1\n")
    enc = local_encode(c, [], 0)
    ns = Namespace(["y1"])
    assert list(enc.map.outputs) == [P("y1 - 6", ns), P("y1", ns)]


def test_encode_rejects_wrong_alpha_length(fig_circuit):
    with pytest.raises(CircuitError):
        local_encode(fig_circuit, [1], 0)


def test_encode_rejects_gateless_circuit():
    from annforge.circuit import CircuitBuilder

    b = CircuitBuilder(QQ, 1)
    degenerate = b.build(b.input(0))
    with pytest.raises(CircuitError):
        local_encode(degenerate, [0], 0)


def test_encode_refuses_an_input_named_like_a_gate_seed():
    # y_k is the seed name of the k-th internal gate; an input may take a
    # y-name only past the last gate.
    def circuit(name: str):
        return parse_circuit(f"circuit c\ninputs x1 {name}\nh = add x1 {name}\n"
                             f"k = mul h {name}\noutput k\n")

    for name, k in (("y1", 1), ("y2", 2)):
        with pytest.raises(CircuitError) as info:
            local_encode(circuit(name), [1, 2], 5)
        assert str(info.value) == f"input '{name}' is the seed name of internal gate {k} of 2"
    enc = local_encode(circuit("y3"), [1, 2], 5)
    assert enc.map.seed_names == ("x1", "y3", "y1", "y2")
    assert local_encode(circuit("y01"), [1, 2], 5).map.seed_names[1] == "y01"


def test_encoding_metrics_fig(fig_encoding):
    m = fig_encoding.map
    assert (m.seed_len, m.out_len, m.stretch, m.degree) == (6, 7, 1, 2)
    # y - (a op b) over variables and constants: at most three terms.
    assert max(p.term_count() for p in m.outputs) <= 3


def test_encoding_metrics_size_one_circuit():
    c = parse_circuit(SINGLE_ADD_TEXT)
    m = local_encode(c, [0, 0], 0).map
    assert m.seed_len == 2 + 1 and m.stretch == 1


def test_local_encoding_holds_only_its_claim():
    init = [f.name for f in dataclasses.fields(LocalEncoding) if f.init]
    assert init == ["circuit", "alpha", "beta"]


def test_replace_beta_rederives_the_map(fig_circuit, fig_encoding):
    for beta in (fig_encoding.beta + 1, Fraction(-1, 2), 0):
        changed = dataclasses.replace(fig_encoding, beta=beta)
        assert changed.map == local_encode(fig_circuit, [0, 0], beta).map
    assert dataclasses.replace(fig_encoding, beta=0).map == fig_encoding.map


def test_replace_validates_and_normalizes_the_claim(fig_encoding):
    for bad in ((1,), (1, 2, 3)):
        with pytest.raises(CircuitError):
            dataclasses.replace(fig_encoding, alpha=bad)
    gateless = dataclasses.replace(fig_encoding.circuit, gates=fig_encoding.circuit.gates[:2],
                                   output=0)
    with pytest.raises(CircuitError):
        dataclasses.replace(fig_encoding, circuit=gateless)
    changed = dataclasses.replace(fig_encoding, alpha=[3, Fraction(1, 2)], beta=7)
    assert type(changed.beta) is Fraction and changed.beta == 7
    assert changed.alpha == (Fraction(3), Fraction(1, 2))
    assert all(type(a) is Fraction for a in changed.alpha)
    gf7 = dataclasses.replace(fig_encoding.circuit, field=PrimeField(7))
    over_gf7 = dataclasses.replace(fig_encoding, circuit=gf7, alpha=(-1, 9), beta=-2)
    assert (over_gf7.alpha, over_gf7.beta) == ((6, 2), 5)


@st.composite
def claims(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(0, 3))
    s = draw(st.integers(1, 8))
    pool = tuple(draw(st.lists(st.integers(-3, 3), min_size=0 if n else 1, max_size=3)))
    circuit = random_circuit(n, s, seed=draw(st.integers(0, 10**6)),
                             const_pool=pool, field=field)
    alpha = [draw(st.integers(-10, 10)) for _ in range(n)]
    return circuit, alpha, draw(st.integers(-10, 10))


@settings(max_examples=150, deadline=None)
@given(claims())
@example((random_circuit(0, 3, seed=5, const_pool=(2, -1)), [], 4))
@example((random_circuit(0, 4, seed=9, const_pool=(3,), field=PrimeField(7)), [], 1))
def test_derived_map_equals_reference_encoding(claim):
    circuit, alpha, beta = claim
    enc = local_encode(circuit, alpha, beta)
    pmap, blocks = reference_local_encode(circuit, alpha, beta)
    assert enc.map == pmap
    assert enc.blocks == blocks
    assert enc.out_len == pmap.out_len == enc.n + enc.s + 1


def test_purely_additive_encoding_has_degree_one():
    text = "circuit t\ninputs x1 x2 x3\ng1 = add x1 x2\ng2 = add g1 x3\noutput g2\n"
    enc = local_encode(parse_circuit(text), [1, 2, 3], 6)
    assert enc.map.degree == 1


def test_blocks_structure(fig_encoding):
    assert fig_encoding.blocks.input == (0, 2)
    assert fig_encoding.blocks.internal == (2, 6)
    assert fig_encoding.blocks.output == (6, 7)
    # Input block is exactly x_i - alpha_i; output block is y_s - beta.
    ns = seed_ns(2, 4)
    assert fig_encoding.map.outputs[6] == P("y4", ns)


# -- padding ------------------------------------------------------------------


def test_pad_by_zero_is_identity(fig_encoding):
    assert pad(fig_encoding.map, 7) is fig_encoding.map


def test_pad_to_ten(fig_encoding):
    padded = pad(fig_encoding.map, 10)
    assert padded.seed_len == 9
    assert padded.out_len == 10
    assert padded.stretch == 1
    assert padded.seed_names[-3:] == ("u1", "u2", "u3")
    for j in range(3):
        assert padded.outputs[7 + j] == Polynomial.variable(QQ, 6 + j)


def test_pad_and_copies_beyond_the_term_budget(fig_encoding, monkeypatch):
    monkeypatch.setenv("AF_TERM_BUDGET", "20")
    assert pad(fig_encoding.map, 20).out_len == 20
    assert parallel_compose(fig_encoding.map, 2).out_len == 14
    with pytest.raises(BudgetExceededError,
                       match="pad: a map with seed length 20 and 21 outputs exceeds"):
        pad(fig_encoding.map, 21)
    with pytest.raises(BudgetExceededError, match="parallel_compose: .* budget 20"):
        parallel_compose(fig_encoding.map, 3)


def test_pad_below_out_len_rejected(fig_encoding):
    with pytest.raises(InputError):
        pad(fig_encoding.map, 6)


def test_pad_preserves_annihilators_on_old_variables(fig_encoding):
    # Kernel-search oracle at degree <= 2: padding neither removes old
    # annihilators nor adds ones touching the new variables.
    before = annihilator_basis_search(fig_encoding.map, 2)
    padded = pad(fig_encoding.map, 9)
    after = annihilator_basis_search(padded, 2)
    assert len(before) == len(after) == 1
    old_vars = set(range(fig_encoding.map.out_len))
    assert after[0].variables() <= old_vars
    assert exact_divide(after[0], before[0]) is not None


# -- parallel composition -------------------------------------------------------


def test_parallel_compose_k1_is_renaming(fig_encoding):
    m = parallel_compose(fig_encoding.map, 1)
    assert m.outputs == fig_encoding.map.outputs
    assert m.seed_names == tuple(f"{n}_1" for n in fig_encoding.map.seed_names)


def test_parallel_compose_k3_arithmetic(fig_encoding):
    m = parallel_compose(fig_encoding.map, 3)
    assert m.seed_len == 18
    assert m.out_len == 21
    assert m.stretch == 3
    assert m.degree == fig_encoding.map.degree


def test_parallel_compose_rejects_k0(fig_encoding):
    with pytest.raises(InputError):
        parallel_compose(fig_encoding.map, 0)


def test_blockwise_annihilation(fig_encoding, fig_cert):
    # Copy-i's renamed generator annihilates the composed map.
    composed = parallel_compose(fig_encoding.map, 3)
    out_len = fig_encoding.map.out_len
    for block in range(3):
        shifted = fig_cert.h.rename_variables(
            {v: v + block * out_len for v in range(out_len)}
        )
        assert compose_polynomial(composed, shifted).is_zero()


# -- composition with polynomials ---------------------------------------------


def test_compose_first_output(fig_encoding):
    p = Z("z1", 7)
    ns = seed_ns(2, 4)
    assert compose_polynomial(fig_encoding.map, p) == P("x1", ns)


def test_compose_h_gives_zero(fig_encoding, fig_cert):
    assert compose_polynomial(fig_encoding.map, fig_cert.h).is_zero()


def test_compose_product(fig_circuit):
    enc = local_encode(fig_circuit, [3, 5], 0)
    p = Z("z1*z2", 7)
    ns = seed_ns(2, 4)
    # Direct-multiplication oracle: (x1 - 3)(x2 - 5) expanded by hand.
    assert compose_polynomial(enc.map, p) == P("x1*x2 - 5*x1 - 3*x2 + 15", ns)


def test_compose_support_overflow(fig_encoding):
    with pytest.raises(SupportOverflowError):
        compose_polynomial(fig_encoding.map, Z("z8", 8))


# -- structural invariants -------------------------------------------------------


def test_triangularity_of_internal_outputs():
    # Internal output for y_i only touches seed variables below y_i's id.
    rng = random.Random(23)
    for seed in range(40):
        n = rng.randint(1, 5)
        s = rng.randint(1, 12)
        c = random_circuit(n, s, seed=seed, const_pool=(1, -1, 2))
        enc = local_encode(c, [rng.randint(-2, 2) for _ in range(n)], 0)
        for i in range(s):
            out = enc.map.outputs[n + i]
            y_id = n + i
            assert out.degree_in(y_id) == 1
            assert all(v <= y_id for v in out.variables())


def test_satisfiability_link():
    # {outputs = 0} has the forward-substitution solution iff f(alpha) = beta.
    rng = random.Random(31)
    for seed in range(30):
        n = rng.randint(1, 4)
        s = rng.randint(1, 10)
        c = random_circuit(n, s, seed=seed + 500, const_pool=(1, -1))
        alpha = [rng.randint(-2, 2) for _ in range(n)]
        value = evaluate_circuit(c, alpha)
        # gate values in internal order
        f = QQ
        vals = []
        acc = []
        for gid in range(len(c.gates)):
            g = c.gates[gid]
            if g.op == "input":
                acc.append(f.normalize(alpha[g.var]))
            elif g.op == "const":
                acc.append(g.value)
            elif g.op == "add":
                acc.append(f.add(acc[g.left], acc[g.right]))
            else:
                acc.append(f.mul(acc[g.left], acc[g.right]))
        gate_vals = [acc[gid] for gid in c.internal_order]
        point = [f.normalize(a) for a in alpha] + gate_vals

        for beta, expect_solvable in [(value, True), (f.add(value, f.one), False)]:
            enc = local_encode(c, alpha, beta)
            residuals = [p.evaluate(point) for p in enc.map.outputs]
            if expect_solvable:
                assert all(f.is_zero(r) for r in residuals)
            else:
                assert any(not f.is_zero(r) for r in residuals)


def test_local_encode_deterministic(fig_circuit):
    a = local_encode(fig_circuit, [2, 3], 4)
    b = local_encode(fig_circuit, [2, 3], 4)
    assert a == b
    assert dumps(encoding_to_json(a)) == dumps(encoding_to_json(b))


def test_map_validates_support():
    with pytest.raises(InputError):
        PolynomialMap(
            outputs=(Polynomial.variable(QQ, 3),),
            seed_len=2,
            seed_names=("x1", "x2"),
        )

"""Differential tests: ``expand``, ``metrics`` and ``serialize_circuit``,
which are folds over the gates (``Circuit.fold``), against the loops kept in
``circuit_reference``, over QQ, GF(7) and GF(2^61-1).  The circuits are
random ones, degenerate ones whose output is an input or a constant, and
ones with no input.  Under a small ``AF_TERM_BUDGET``, ``expand`` must
refuse at the same gate with the same text.  The inputs keep the default
names x1..xn: with an input named like g1, the writers differ on purpose
(``test_circuit.py::test_serialize_parse_identity``)."""

from __future__ import annotations

import os
from fractions import Fraction
from unittest import mock

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from annforge import config
from annforge.circuit import CircuitBuilder, expand, metrics, random_circuit, serialize_circuit
from annforge.errors import AnnforgeError, InputError
from annforge.fields import QQ, PrimeField

from circuit_reference import reference_expand, reference_metrics, reference_serialize_circuit

FIELDS = [QQ, PrimeField(7), PrimeField(config.DEFAULT_PRIME)]
CONSTANTS = st.sampled_from([0, 1, -1, 2, -3, Fraction(3, 2)])


@st.composite
def circuits(draw):
    field = draw(st.sampled_from(FIELDS))
    pool = tuple(draw(st.lists(CONSTANTS, max_size=3)))
    kind = draw(st.sampled_from(["random", "no inputs", "degenerate"]))
    if kind == "degenerate":
        b = CircuitBuilder(field, draw(st.integers(0 if pool else 1, 3)))
        for c in pool:
            b.const(c)
        return b.build(draw(st.integers(0, len(b.gates) - 1)))
    n = draw(st.integers(1, 3)) if kind == "random" else 0
    return random_circuit(n, draw(st.integers(1, 8)), seed=draw(st.integers(0, 10**6)),
                          const_pool=pool or ((1,) if n == 0 else ()), field=field)


def outcome(fn, circuit):
    """The result, or the error's type and text."""
    try:
        return fn(circuit)
    except AnnforgeError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(circuits(), st.sampled_from(["", "1", "2", "4", "30"]))
def test_folds_equal_the_former_gate_loops(circuit, budget):
    assert metrics(circuit) == reference_metrics(circuit)
    assert serialize_circuit(circuit) == reference_serialize_circuit(circuit)
    with mock.patch.dict(os.environ, {"AF_TERM_BUDGET": budget}):
        assert outcome(expand, circuit) == outcome(reference_expand, circuit)


@pytest.mark.parametrize("output", [0, 1], ids=["input", "constant"])
def test_a_bad_budget_is_refused_by_a_circuit_with_no_internal_gate(output, monkeypatch):
    b = CircuitBuilder(QQ, 1)
    b.const(5)
    circuit = b.build(output)
    assert metrics(circuit) == reference_metrics(circuit)
    monkeypatch.setenv("AF_TERM_BUDGET", "abc")
    with pytest.raises(InputError, match="AF_TERM_BUDGET='abc' is not an integer >= 1"):
        reference_expand(circuit)
    with pytest.raises(InputError, match="AF_TERM_BUDGET='abc' is not an integer >= 1"):
        expand(circuit)

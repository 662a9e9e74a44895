"""Differential tests: ``sz_pit`` and ``generator_pit``, which share one
sampling loop, against the per-mode loops kept in ``pit_reference``, over
QQ, GF(7) and GF(2^61 - 1).  Every ``PitVerdict`` field and the type of each
value, the warnings and the errors must all agree."""

from __future__ import annotations

import dataclasses
import random
import warnings
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from annforge.annihilator import principal_generator
from annforge.circuit import CircuitBuilder, circuit_from_polynomial
from annforge.encoding import local_encode
from annforge.errors import AnnforgeError, InputError
from annforge.fields import QQ, PrimeField
from annforge.instances import kayal_map
from annforge.pit import generator_pit, sz_pit

from pit_reference import reference_generator_pit, reference_sz_pit

FIELDS = [QQ, PrimeField(7), PrimeField(2**61 - 1)]


def random_pit_circuit(field, n_inputs: int, size: int, seed: int, zero: bool):
    """A random fan-in-2 circuit; with ``zero`` its output is g - g."""
    rng = random.Random(seed)
    b = CircuitBuilder(field, n_inputs)
    refs = [b.input(i) for i in range(n_inputs)] + [b.const(2), b.const(-1)]
    for _ in range(size):
        left, right = rng.choice(refs), rng.choice(refs)
        refs.append(b.mul(left, right) if rng.random() < 0.5 else b.add(left, right))
    out = refs[-1]
    if zero:
        out = b.add(out, b.mul(b.const(-1), out))
    return b.build(out)


def outcome(fn, *args, **kwargs):
    """Each verdict field with its type (and the witness entries' types), or
    the error's type and text; plus the category and text of each warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            verdict = fn(*args, **kwargs)
        except AnnforgeError as exc:
            result = (type(exc), str(exc))
        else:
            result = [(f.name, getattr(verdict, f.name), type(getattr(verdict, f.name)))
                      for f in dataclasses.fields(verdict)]
            if verdict.witness is not None:
                result.append(("witness types", [type(v) for v in verdict.witness]))
    return result, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=150, deadline=None)
@given(
    field=st.sampled_from(FIELDS),
    n_inputs=st.integers(1, 3),
    size=st.integers(1, 6),
    circuit_seed=st.integers(0, 10**6),
    zero=st.booleans(),
    trials=st.integers(0, 6),
    grid=st.one_of(st.none(), st.integers(1, 12)),
    seed=st.integers(0, 10**9),
)
def test_sz_pit_matches_reference(field, n_inputs, size, circuit_seed, zero, trials, grid,
                                  seed):
    circuit = random_pit_circuit(field, n_inputs, size, circuit_seed, zero)
    expected = outcome(reference_sz_pit, circuit, trials=trials, grid_size=grid, seed=seed)
    assert outcome(sz_pit, circuit, trials=trials, grid_size=grid, seed=seed) == expected


def _maps(field):
    """Small maps: kayal maps and local encodings of random claims, each with
    its own principal generator as a circuit when it has one."""
    for n, d in [(1, 1), (1, 3), (2, 2)]:
        yield kayal_map(n, d, field), None
    for seed in range(3):
        claim = random_pit_circuit(field, 1 + seed % 2, 1 + seed % 2, seed, False)
        enc = local_encode(claim, [seed + 1] * claim.n_inputs, seed)
        h = principal_generator(enc).h
        yield enc.map, circuit_from_polynomial(h, enc.out_len)


MAPS = {f: list(_maps(f)) for f in FIELDS}


@settings(max_examples=150, deadline=None)
@given(
    field=st.sampled_from(FIELDS),
    which=st.integers(0, 5),
    own_generator=st.booleans(),
    n_inputs=st.integers(1, 5),
    size=st.integers(1, 3),
    circuit_seed=st.integers(0, 10**6),
    mode=st.sampled_from(["symbolic", "randomized", "deterministic_grid"]),
    trials=st.integers(0, 6),
    seed=st.integers(0, 10**9),
)
def test_generator_pit_matches_reference(field, which, own_generator, n_inputs, size,
                                         circuit_seed, mode, trials, seed):
    # Circuits may read more variables than the map emits (an error in both),
    # and a map's own generator is a circuit the map fools.
    pmap, generator = MAPS[field][which]
    if own_generator and generator is not None:
        circuit = generator
    else:
        circuit = random_pit_circuit(field, n_inputs, size, circuit_seed, False)
    args = (circuit, pmap)
    kwargs = dict(mode=mode, trials=trials, seed=seed)
    expected = outcome(reference_generator_pit, *args, **kwargs)
    if mode == "randomized" and trials == 0 and isinstance(expected[0], list):
        # The reference drew no point and answered "zero"; the package refuses
        # trials < 1 as sz_pit does, after the checks the reference makes.
        expected = ((InputError, "--trials must be >= 1"), expected[1])
    assert outcome(generator_pit, *args, **kwargs) == expected


def test_zero_verdicts_of_both_sampling_modes_match_reference():
    # The fooled cases above are drawn at random; pin one of each mode.
    pmap, generator = MAPS[QQ][3]
    for mode in ("randomized", "deterministic_grid"):
        expected = outcome(reference_generator_pit, generator, pmap, mode=mode, seed=4)
        assert expected[0][0] == ("verdict", "zero", str)
        assert outcome(generator_pit, generator, pmap, mode=mode, seed=4) == expected


def test_witnesses_are_field_values():
    # The sampled points are grid ints; a witness is normalized into the
    # field: Fractions over QQ, ints over GF(p).  Fraction(3) == 3, so the
    # verdict comparison alone does not see a change of type.
    for field in FIELDS:
        kind = int if field.characteristic else Fraction
        b = CircuitBuilder(field, 2)
        circuit = b.build(b.add(b.mul(b.input(0), b.input(1)), b.const(2)))
        pmap = kayal_map(2, 1, field)  # degree 2 in all: every grid fits in GF(7)
        verdicts = [sz_pit(circuit, seed=1)] + [
            generator_pit(circuit, pmap, mode=mode, seed=1)
            for mode in ("randomized", "deterministic_grid")]
        for verdict in verdicts:
            assert verdict.verdict == "nonzero"
            assert [type(v) for v in verdict.witness] == [kind] * len(verdict.witness)

"""Point evaluation as the package did it before the int-native loops, kept
as the reference oracle.

The bodies are the earlier ``Field.pow``, ``Polynomial.evaluate`` and
``circuit.evaluate_circuit``, unchanged except that they are free
functions taking the field, polynomial or circuit as their first argument
(the polynomial's terms are read through ``iter_terms``, and a monomial's
(var, exp) pairs by iterating it).
They work through one ``Field`` call per operation.  The differential tests
in ``test_evaluate.py`` require the package's evaluators to return the
same value, of the same type, and to raise the same error type.
"""

from __future__ import annotations

from typing import Sequence

from annforge.circuit import Circuit
from annforge.errors import CircuitError, MissingAssignmentError
from annforge.fields import Field, FieldValue
from annforge.poly import Polynomial


def reference_pow(f: Field, a: FieldValue, e: int) -> FieldValue:
    if e < 0:
        return reference_pow(f, f.inv(a), -e)
    out = f.one
    base = a
    while e:
        if e & 1:
            out = f.mul(out, base)
        base = f.mul(base, base)
        e >>= 1
    return out


def reference_evaluate(poly: Polynomial, point: Sequence[FieldValue]) -> FieldValue:
    f = poly.field
    acc = f.zero
    for mono, coeff in poly.iter_terms():
        val = coeff
        for v, e in mono:
            if v >= len(point):
                raise MissingAssignmentError(f"no value for variable id {v}")
            val = f.mul(val, reference_pow(f, f.normalize(point[v]), e))
        acc = f.add(acc, val)
    return acc


def reference_evaluate_circuit(circuit: Circuit, point) -> FieldValue:
    if len(point) != circuit.n_inputs:
        raise CircuitError(f"expected {circuit.n_inputs} inputs, got {len(point)}")
    f = circuit.field
    vals: list[FieldValue] = []
    for g in circuit.gates:
        if g.op == "input":
            vals.append(f.normalize(point[g.var]))
        elif g.op == "const":
            vals.append(g.value)
        elif g.op == "add":
            vals.append(f.add(vals[g.left], vals[g.right]))
        else:
            vals.append(f.mul(vals[g.left], vals[g.right]))
    return vals[circuit.output]

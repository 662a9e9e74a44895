"""Fan-in-2 arithmetic circuit DAGs: parsing, evaluation, expansion, metrics.

Gate ids are topological by construction: ids 0..n-1 are the variable
inputs, and every add/mul gate references strictly smaller ids.  Constants
are gates (input gates labeled by a field element), not edge weights.
internal_order is the definition order of the add/mul gates; the designated
output must be the last of them (degenerate circuits with no internal gates
are allowed so that metrics/evaluate work on bare references).  Circuit.fold
is the one walk over the gates: expand, the metrics, serialize_circuit and
the local encoding are folds, and evaluate_circuit keeps its flat plan.

Circuit DSL::

    circuit <name>
    inputs x1 x2 ...
    g1 = add|mul <ref> <ref>    # ref: input, previous gate, or rational
    ...
    output g<k>
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, TypeVar

from . import config
from .errors import CircuitError, ParseError
from .fields import QQ, Field, FieldValue
from .poly import _NAME_RE, Polynomial

_LITERAL_RE = re.compile(r"-?\d+(/\d+)?", re.ASCII)
T = TypeVar("T")


@dataclass(frozen=True)
class Gate:
    op: str  # "input" | "const" | "add" | "mul"
    var: int | None = None
    value: FieldValue | None = None
    left: int | None = None
    right: int | None = None

    @staticmethod
    def input(var: int) -> "Gate":
        return Gate("input", var=var)

    @staticmethod
    def const(value: FieldValue) -> "Gate":
        return Gate("const", value=value)

    @property
    def is_internal(self) -> bool:
        return self.op in ("add", "mul")


@dataclass(frozen=True)
class Circuit:
    field: Field
    gates: tuple[Gate, ...]
    n_inputs: int
    output: int
    name: str = "circuit"
    input_names: tuple[str, ...] = ()

    def __post_init__(self):
        names = self.input_names or tuple(f"x{i}" for i in range(1, self.n_inputs + 1))
        object.__setattr__(self, "input_names", names)
        if len(names) != self.n_inputs:
            raise CircuitError("input_names length must match n_inputs")
        for i, g in enumerate(self.gates):
            if i < self.n_inputs:
                if g.op != "input" or g.var != i:
                    raise CircuitError(f"gate {i} must be input x{i + 1}")
            elif g.op == "input":
                raise CircuitError("input gates must occupy ids 0..n_inputs-1")
            if g.is_internal:
                if g.left >= i or g.right >= i or g.left < 0 or g.right < 0:
                    raise CircuitError(f"gate {i} references a non-earlier gate")
        if not 0 <= self.output < len(self.gates):
            raise CircuitError("output gate id out of range")
        order = self.internal_order
        if order and self.output != order[-1]:
            raise CircuitError("output must be the last internal gate")

    @cached_property
    def internal_order(self) -> tuple[int, ...]:
        return tuple(i for i, g in enumerate(self.gates) if g.is_internal)

    @property
    def size(self) -> int:
        return len(self.internal_order)

    @cached_property
    def _plan(self) -> tuple[list, tuple[tuple[int, bool, int, int], ...]]:
        """The evaluation plan: a template of gate values, the constants read
        as exact integers (Field.read_point) and 0 elsewhere, and (gate,
        is_mul, left, right) for each internal gate in order."""
        values = [g.value if g.op == "const" else 0 for g in self.gates]
        template = self.field.read_point(values, range(len(values)))
        steps = tuple((i, self.gates[i].op == "mul", self.gates[i].left, self.gates[i].right)
                      for i in self.internal_order)
        return template, steps

    def fold(self, leaf: Callable[[int, Gate], T], add: Callable[[int, T, T], T],
             mul: Callable[[int, T, T], T]) -> T:
        """One pass over the gates in id order: input or const gate ``i``
        takes ``leaf(i, gate)``, and internal gate ``i`` takes ``add(i, a, b)``
        or ``mul(i, a, b)`` of its children's values ``a`` and ``b``.  Returns
        the output gate's value, a leaf's when no gate is internal."""
        values: list[T] = []
        for i, g in enumerate(self.gates):
            if g.op == "add":
                values.append(add(i, values[g.left], values[g.right]))
            elif g.op == "mul":
                values.append(mul(i, values[g.left], values[g.right]))
            else:
                values.append(leaf(i, g))
        return values[self.output]

    @cached_property
    def _metrics(self) -> "CircuitMetrics":
        depth, degree = self.fold(
            lambda i, g: (0, 1 if g.op == "input" else 0),
            lambda i, a, b: (1 + max(a[0], b[0]), max(a[1], b[1])),
            lambda i, a, b: (1 + max(a[0], b[0]), a[1] + b[1]))
        return CircuitMetrics(self.size, depth, degree)


@dataclass(frozen=True)
class CircuitMetrics:
    size: int
    depth: int
    degree_bound: int


def evaluate_circuit(circuit: Circuit, point) -> FieldValue:
    """Gate-by-gate exact evaluation at a point of length n_inputs.

    A copy of the circuit's cached plan (Circuit._plan) gets the inputs,
    read as exact integers by Field.read_point, and one loop over the
    internal gates fills in the rest: over F_p each gate reduces its int
    value with ``%``; over QQ an integral value stays an int (mixed
    int/Fraction arithmetic stays exact).  The output is normalized once."""
    if len(point) != circuit.n_inputs:
        raise CircuitError(f"expected {circuit.n_inputs} inputs, got {len(point)}")
    f = circuit.field
    p = f.characteristic
    template, steps = circuit._plan
    vals = template.copy()
    vals[:circuit.n_inputs] = f.read_point(point, range(circuit.n_inputs))
    if p:
        for i, is_mul, a, b in steps:
            vals[i] = (vals[a] * vals[b] if is_mul else vals[a] + vals[b]) % p
    else:
        for i, is_mul, a, b in steps:
            vals[i] = vals[a] * vals[b] if is_mul else vals[a] + vals[b]
    return f.normalize(vals[circuit.output])


def expand(circuit: Circuit) -> Polynomial:
    """The polynomial computed by the circuit, by a fold over its gates.

    Aborts with BudgetExceededError as soon as any intermediate polynomial
    exceeds the term budget; expansion is an oracle, not a scalable path.
    """
    def gate(i: int, p: Polynomial) -> Polynomial:
        n = p.term_count()
        config.check_budget(f"gate {i}: {n} terms", n)
        return p

    return circuit.fold(lambda i, g: gate(i, leaf_polynomial(circuit.field, g)),
                        lambda i, a, b: gate(i, a + b), lambda i, a, b: gate(i, a * b))


def leaf_polynomial(field: Field, g: Gate) -> Polynomial:
    """An input gate's variable or a const gate's constant."""
    return Polynomial.variable(field, g.var) if g.op == "input" \
        else Polynomial.constant(field, g.value)


def metrics(circuit: Circuit) -> CircuitMetrics:
    """size = internal gate count; depth = longest input-to-output path;
    degree bound by gate-wise propagation (add: max, mul: sum), cached on the circuit."""
    return circuit._metrics


def random_circuit(
    n_inputs: int,
    size: int,
    seed: int,
    const_pool: tuple = (),
    field: Field = QQ,
) -> Circuit:
    """Reproducible pseudorandom fan-in-2 DAG: op uniform over {add, mul},
    operands uniform over all prior gates (inputs, consts, earlier gates)."""
    if size < 1:
        raise CircuitError("size must be >= 1")
    rng = random.Random(seed)
    b = CircuitBuilder(field, n_inputs, name=f"random_{seed}")
    for c in const_pool:
        b.const(c)
    if not b.gates:
        raise CircuitError("a random circuit needs an input or a constant to start from")
    for _ in range(size):
        op = rng.choice(("add", "mul"))
        left = rng.randrange(len(b.gates))
        right = rng.randrange(len(b.gates))
        getattr(b, op)(left, right)
    return b.build()


class CircuitBuilder:
    """Incremental construction helper; returns gate ids as references."""

    def __init__(self, field: Field = QQ, n_inputs: int = 0,
                 input_names: tuple[str, ...] | None = None, name: str = "circuit"):
        self.field = field
        self.name = name
        self.n_inputs = n_inputs
        self.input_names = tuple(input_names) if input_names else tuple(
            f"x{i}" for i in range(1, n_inputs + 1)
        )
        self.gates: list[Gate] = [Gate.input(i) for i in range(n_inputs)]
        self._const_ids: dict[FieldValue, int] = {}

    def input(self, i: int) -> int:
        if not 0 <= i < self.n_inputs:
            raise CircuitError(f"input index {i} out of range")
        return i

    def const(self, value) -> int:
        v = self.field.normalize(value)
        if v not in self._const_ids:
            self.gates.append(Gate.const(v))
            self._const_ids[v] = len(self.gates) - 1
        return self._const_ids[v]

    def add(self, a: int, b: int) -> int:
        self.gates.append(Gate("add", left=a, right=b))
        return len(self.gates) - 1

    def mul(self, a: int, b: int) -> int:
        self.gates.append(Gate("mul", left=a, right=b))
        return len(self.gates) - 1

    def tree_reduce(self, op: str, operands: list[int]) -> int:
        """Left-deep binary tree of fan-in-2 ``op`` gates over the operands;
        a single operand adds no gate."""
        if op not in ("add", "mul"):
            raise CircuitError(f"unknown reduction op {config.quote(op)}")
        if not operands:
            raise CircuitError("tree_reduce over an empty operand list")
        acc = operands[0]
        for ref in operands[1:]:
            acc = self.add(acc, ref) if op == "add" else self.mul(acc, ref)
        return acc

    def build(self, output: int | None = None) -> Circuit:
        out = len(self.gates) - 1 if output is None else output
        return Circuit(
            field=self.field,
            gates=tuple(self.gates),
            n_inputs=self.n_inputs,
            output=out,
            name=self.name,
            input_names=self.input_names,
        )


def circuit_from_polynomial(p: Polynomial, n_vars: int, name: str = "poly") -> Circuit:
    """Term-by-term circuit for a polynomial (oracle/CLI helper, not a
    minimal construction)."""
    b = CircuitBuilder(p.field, n_vars, name=name)
    term_refs: list[int] = []
    for mono, coeff in p.terms():
        factors: list[int] = []
        if coeff != p.field.one or not mono:
            factors.append(b.const(coeff))
        for v, e in mono:
            factors.extend([b.input(v)] * e)
        term_refs.append(b.tree_reduce("mul", factors))
    if not term_refs:
        return b.build(b.const(0))
    return b.build(b.tree_reduce("add", term_refs))


# -- DSL ----------------------------------------------------------------------


def parse_circuit(text: str, field: Field = QQ) -> Circuit:
    """Parse the circuit DSL into a CircuitBuilder, which is created at the
    inputs line; definition order fixes internal_order."""
    name = "circuit"
    gate_ids: dict[str, int] = {}
    b: CircuitBuilder | None = None
    output_ref: str | None = None

    def resolve(ref: str, lineno: int) -> int:
        if _LITERAL_RE.fullmatch(ref):
            return b.const(field.parse_value(ref))
        if ref not in gate_ids:
            raise ParseError(f"line {lineno}: undefined reference {config.quote(ref)}")
        return gate_ids[ref]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "circuit":
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'circuit <name>'")
            name = parts[1]
        elif parts[0] == "inputs":
            if b is not None:
                raise ParseError(f"line {lineno}: duplicate inputs line")
            for i, n in enumerate(parts[1:]):
                if not _NAME_RE.fullmatch(n):
                    raise ParseError(f"line {lineno}: bad input name {config.quote(n)}")
                if n in gate_ids:
                    raise ParseError(f"line {lineno}: duplicate input {config.quote(n)}")
                gate_ids[n] = i
            b = CircuitBuilder(field, len(parts) - 1, input_names=tuple(parts[1:]))
        elif parts[0] == "output":
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'output <gate>'")
            output_ref = parts[1]
        elif len(parts) == 5 and parts[1] == "=":
            gname, _, op, ref1, ref2 = parts
            if op not in ("add", "mul"):
                raise ParseError(
                    f"line {lineno}: unknown op {config.quote(op)} (fan-in-2 add/mul only)")
            if not _NAME_RE.fullmatch(gname):
                raise ParseError(f"line {lineno}: bad gate name {config.quote(gname)}")
            if gname in gate_ids:
                raise ParseError(f"line {lineno}: duplicate gate {config.quote(gname)}")
            if b is None:
                raise ParseError(f"line {lineno}: gate before inputs line")
            left, right = resolve(ref1, lineno), resolve(ref2, lineno)
            gate_ids[gname] = getattr(b, op)(left, right)
        else:
            raise ParseError(f"line {lineno}: cannot parse {config.quote(line)}")

    if output_ref is None:
        raise ParseError("missing output line")
    if output_ref not in gate_ids:
        raise ParseError(f"undefined output gate {config.quote(output_ref)}")
    out = gate_ids[output_ref]
    # Constants enter just before the gate that reads them, so the last
    # gate is the last internal one whenever there is any.
    if b.gates[-1].is_internal and out != len(b.gates) - 1:
        raise ParseError("output must be the last defined gate")
    b.name = name
    return b.build(out)


def serialize_circuit(circuit: Circuit) -> str:
    """Canonical DSL text: gates renamed g1..gs in internal order, the prefix
    taking one more "g" while an input is named by it and digits."""
    prefix = "g"
    while any(re.fullmatch(prefix + "[0-9]+", name) for name in circuit.input_names):
        prefix += "g"
    lines = [f"circuit {circuit.name}", " ".join(["inputs", *circuit.input_names])]

    def gate(op: str, a: str, b: str) -> str:
        name = f"{prefix}{len(lines) - 1}"  # the two header lines come first
        lines.append(f"{name} = {op} {a} {b}")
        return name

    out = circuit.fold(lambda i, g: circuit.input_names[g.var] if g.op == "input"
                       else circuit.field.format_value(g.value),
                       lambda i, a, b: gate("add", a, b), lambda i, a, b: gate("mul", a, b))
    lines.append(f"output {out}")
    return "\n".join(lines) + "\n"

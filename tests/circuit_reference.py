"""Circuit code as the package wrote it before, kept as reference oracles.

``reference_parse_circuit`` and ``reference_random_circuit`` are the
earlier ``circuit.parse_circuit`` and ``circuit.random_circuit``, from
before both went through ``CircuitBuilder``, unchanged but for their names:
each keeps its own gate list and calls ``Circuit`` itself, and
``random_circuit`` gives every pool constant a gate of its own.  The
differential tests in ``test_circuit_differential.py`` require the package
to build equal circuits, or to raise the same error with the same message.

``reference_expand``, ``reference_metrics`` and
``reference_serialize_circuit`` are ``expand``, ``metrics`` and
``serialize_circuit`` as each walked the gates with its own loop, before
all three became folds (``Circuit.fold``); ``test_fold_differential.py``
compares them with the package.
"""

from __future__ import annotations

import random
import re

from annforge import config
from annforge.circuit import _LITERAL_RE, Circuit, CircuitMetrics, Gate
from annforge.errors import CircuitError, ParseError
from annforge.fields import QQ, Field, FieldValue
from annforge.poly import Polynomial

#: The input-name rule as the circuit module wrote it for itself.
_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def reference_random_circuit(
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
    gates = [Gate.input(i) for i in range(n_inputs)]
    for c in const_pool:
        gates.append(Gate.const(field.normalize(c)))
    for _ in range(size):
        op = rng.choice(("add", "mul"))
        left = rng.randrange(len(gates))
        right = rng.randrange(len(gates))
        gates.append(Gate(op, left=left, right=right))
    return Circuit(
        field=field,
        gates=tuple(gates),
        n_inputs=n_inputs,
        output=len(gates) - 1,
        name=f"random_{seed}",
    )


def reference_parse_circuit(text: str, field: Field = QQ) -> Circuit:
    """Parse the circuit DSL; definition order fixes internal_order."""
    name = "circuit"
    input_names: list[str] = []
    gate_ids: dict[str, int] = {}
    gates: list[Gate] = []
    const_ids: dict[FieldValue, int] = {}
    output_ref: str | None = None
    saw_inputs = False

    def resolve(ref: str, lineno: int) -> int:
        if _LITERAL_RE.fullmatch(ref):
            v = field.parse_value(ref)
            if v not in const_ids:
                gates.append(Gate.const(v))
                const_ids[v] = len(gates) - 1
            return const_ids[v]
        if ref not in gate_ids:
            raise ParseError(f"line {lineno}: undefined reference {ref!r}")
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
            if saw_inputs:
                raise ParseError(f"line {lineno}: duplicate inputs line")
            saw_inputs = True
            input_names = parts[1:]
            for i, n in enumerate(input_names):
                if not _IDENT_RE.fullmatch(n):
                    raise ParseError(f"line {lineno}: bad input name {n!r}")
                if n in gate_ids:
                    raise ParseError(f"line {lineno}: duplicate input {n!r}")
                gates.append(Gate.input(i))
                gate_ids[n] = i
        elif parts[0] == "output":
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'output <gate>'")
            output_ref = parts[1]
        elif len(parts) == 5 and parts[1] == "=":
            gname, _, op, ref1, ref2 = parts
            if op not in ("add", "mul"):
                raise ParseError(f"line {lineno}: unknown op {op!r} (fan-in-2 add/mul only)")
            if gname in gate_ids:
                raise ParseError(f"line {lineno}: duplicate gate {gname!r}")
            if not saw_inputs:
                raise ParseError(f"line {lineno}: gate before inputs line")
            left = resolve(ref1, lineno)
            right = resolve(ref2, lineno)
            gates.append(Gate(op, left=left, right=right))
            gate_ids[gname] = len(gates) - 1
        else:
            raise ParseError(f"line {lineno}: cannot parse {line!r}")

    if output_ref is None:
        raise ParseError("missing output line")
    if output_ref not in gate_ids:
        raise ParseError(f"undefined output gate {output_ref!r}")
    out = gate_ids[output_ref]
    internal = [i for i, g in enumerate(gates) if g.is_internal]
    if internal and out != internal[-1]:
        raise ParseError("output must be the last defined gate")
    return Circuit(
        field=field,
        gates=tuple(gates),
        n_inputs=len(input_names),
        output=out,
        name=name,
        input_names=tuple(input_names),
    )


def reference_expand(circuit: Circuit) -> Polynomial:
    """The polynomial computed by the circuit, by gate-order accumulation.

    Aborts with BudgetExceededError as soon as any intermediate polynomial
    exceeds the term budget; expansion is an oracle, not a scalable path.
    """
    f = circuit.field
    polys: list[Polynomial] = []
    for i, g in enumerate(circuit.gates):
        if g.op == "input":
            p = Polynomial.variable(f, g.var)
        elif g.op == "const":
            p = Polynomial.constant(f, g.value)
        elif g.op == "add":
            p = polys[g.left] + polys[g.right]
        else:
            p = polys[g.left] * polys[g.right]
        n = p.term_count()
        config.check_budget(f"gate {i}: {n} terms", n)
        polys.append(p)
    return polys[circuit.output]


def reference_metrics(circuit: Circuit) -> CircuitMetrics:
    """size = internal gate count; depth = longest input-to-output path;
    degree bound by gate-wise propagation (add: max, mul: sum)."""
    depth = [0] * len(circuit.gates)
    degree = [0] * len(circuit.gates)
    for i, g in enumerate(circuit.gates):
        if g.op == "input":
            degree[i] = 1
        elif g.is_internal:
            depth[i] = 1 + max(depth[g.left], depth[g.right])
            a, b = degree[g.left], degree[g.right]
            degree[i] = a + b if g.op == "mul" else max(a, b)
    return CircuitMetrics(circuit.size, depth[circuit.output], degree[circuit.output])


def reference_serialize_circuit(circuit: Circuit) -> str:
    """Canonical DSL text: gates renamed g1..gs in internal order (even when
    an input already has one of those names)."""
    gate_names = {}
    for pos, gid in enumerate(circuit.internal_order, start=1):
        gate_names[gid] = f"g{pos}"

    def ref(gid: int) -> str:
        g = circuit.gates[gid]
        if g.op == "input":
            return circuit.input_names[g.var]
        if g.op == "const":
            return circuit.field.format_value(g.value)
        return gate_names[gid]

    lines = [f"circuit {circuit.name}", "inputs " + " ".join(circuit.input_names)]
    if circuit.n_inputs == 0:
        lines[1] = "inputs"
    for gid in circuit.internal_order:
        g = circuit.gates[gid]
        lines.append(f"{gate_names[gid]} = {g.op} {ref(g.left)} {ref(g.right)}")
    lines.append(f"output {ref(circuit.output)}")
    return "\n".join(lines) + "\n"

"""The local encoding as the package built it before the map was derived
from the claim, kept as the reference oracle.

``reference_local_encode`` is the earlier body of ``local_encode``,
unchanged except that it returns the map and the block spans instead of a
``LocalEncoding`` that stored both.  The differential tests require
``LocalEncoding.map`` and ``LocalEncoding.blocks`` to equal these.
"""

from __future__ import annotations

from annforge.circuit import Circuit
from annforge.encoding import BlockSpans, PolynomialMap
from annforge.errors import CircuitError
from annforge.poly import Polynomial


def reference_local_encode(circuit: Circuit, alpha, beta) -> tuple[PolynomialMap, BlockSpans]:
    f = circuit.field
    n = circuit.n_inputs
    s = circuit.size
    if len(alpha) != n:
        raise CircuitError(f"alpha has length {len(alpha)}, circuit has {n} inputs")
    if s == 0:
        raise CircuitError("cannot encode a circuit with no internal gates")
    alpha = tuple(f.normalize(a) for a in alpha)
    beta = f.normalize(beta)

    # L(gate) as a polynomial over the seed variables x1..xn, y1..ys.
    position = {gid: j for j, gid in enumerate(circuit.internal_order, start=1)}
    lfun: dict[int, Polynomial] = {}
    for gid, gate in enumerate(circuit.gates):
        if gate.op == "input":
            lfun[gid] = Polynomial.variable(f, gate.var)
        elif gate.op == "const":
            lfun[gid] = Polynomial.constant(f, gate.value)
        else:
            lfun[gid] = Polynomial.variable(f, n + position[gid] - 1)

    outputs: list[Polynomial] = []
    for i in range(n):
        outputs.append(Polynomial.variable(f, i) - Polynomial.constant(f, alpha[i]))
    for gid in circuit.internal_order:
        gate = circuit.gates[gid]
        child = lfun[gate.left] + lfun[gate.right] if gate.op == "add" \
            else lfun[gate.left] * lfun[gate.right]
        outputs.append(lfun[gid] - child)
    outputs.append(Polynomial.variable(f, n + s - 1) - Polynomial.constant(f, beta))

    names = tuple(circuit.input_names) + tuple(f"y{j}" for j in range(1, s + 1))
    pmap = PolynomialMap(outputs=tuple(outputs), seed_len=n + s, seed_names=names)
    return pmap, BlockSpans(input=(0, n), internal=(n, n + s), output=(n + s, n + s + 1))

"""Local encodings of circuits, padding, and parallel stretch amplification.

A local encoding turns a circuit together with a claimed evaluation
``circuit(alpha) = beta`` into a degree-<=2 polynomial map on n+s seed
variables (x1..xn for the inputs, y1..ys for the internal gates) with
n+s+1 outputs: the input block x_i - alpha_i, one output per internal gate
relating its y-variable to its children, and the output block y_s - beta.
The system {outputs = 0} is satisfiable iff the claim holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from . import config
from .circuit import Circuit
from .errors import BudgetExceededError, CircuitError, SupportOverflowError
from .fields import FieldValue
from .poly import Monomial, Namespace, Polynomial


@dataclass(frozen=True)
class PolynomialMap:
    """Tuple of polynomials over the first ``seed_len`` variable ids."""

    outputs: tuple[Polynomial, ...]
    seed_len: int
    seed_names: tuple[str, ...]

    def __post_init__(self):
        if not self.outputs:
            raise ValueError("a polynomial map needs at least one output")
        if len(self.seed_names) != self.seed_len:
            raise ValueError("seed_names length must equal seed_len")
        for i, p in enumerate(self.outputs):
            high = [v for v in p.variables() if v >= self.seed_len]
            if high:
                raise ValueError(f"output {i} uses non-seed variable ids {high}")
            if p.field != self.field:
                raise ValueError("outputs must share one field")

    @property
    def field(self):
        return self.outputs[0].field

    @property
    def out_len(self) -> int:
        return len(self.outputs)

    @property
    def stretch(self) -> int:
        return self.out_len - self.seed_len

    @cached_property
    def degree(self) -> int:
        return max(p.degree() for p in self.outputs)

    @cached_property
    def inverse(self) -> list[Polynomial] | None:
        """triangular_inverse of the outputs over the seed variables, built
        once per map and shared by every check against it."""
        return triangular_inverse(self.outputs, self.seed_len)

    @property
    def seed_namespace(self) -> Namespace:
        return Namespace(self.seed_names)


@dataclass(frozen=True)
class BlockSpans:
    """Half-open index ranges of the three output blocks of a local encoding."""

    input: tuple[int, int]
    internal: tuple[int, int]
    output: tuple[int, int]


@dataclass(frozen=True)
class LocalEncoding:
    """The claim ``circuit(alpha) = beta``; ``map`` is its local encoding.

    The map is derived once, at construction, from the claim alone.  Output
    order: input block, internal block (in internal_order), output block.
    The L-function sends a const gate to its constant, input gate i to x_i,
    and the j-th internal gate to y_j; constants therefore fold directly
    into the internal outputs.  Construction validates the claim and
    normalizes alpha and beta into the circuit's field.
    """

    circuit: Circuit
    alpha: tuple[FieldValue, ...]
    beta: FieldValue
    map: PolynomialMap = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        circuit, f, n, s = self.circuit, self.circuit.field, self.n, self.s
        if len(self.alpha) != n:
            raise CircuitError(f"alpha has length {len(self.alpha)}, circuit has {n} inputs")
        if s == 0:
            raise CircuitError("cannot encode a circuit with no internal gates")
        object.__setattr__(self, "alpha", tuple(f.normalize(a) for a in self.alpha))
        object.__setattr__(self, "beta", f.normalize(self.beta))
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
            outputs.append(Polynomial.variable(f, i) - Polynomial.constant(f, self.alpha[i]))
        for gid in circuit.internal_order:
            gate = circuit.gates[gid]
            child = lfun[gate.left] + lfun[gate.right] if gate.op == "add" \
                else lfun[gate.left] * lfun[gate.right]
            outputs.append(lfun[gid] - child)
        outputs.append(Polynomial.variable(f, n + s - 1) - Polynomial.constant(f, self.beta))

        names = tuple(circuit.input_names) + tuple(f"y{j}" for j in range(1, s + 1))
        object.__setattr__(self, "map", PolynomialMap(
            outputs=tuple(outputs), seed_len=n + s, seed_names=names))

    @property
    def n(self) -> int:
        return self.circuit.n_inputs

    @property
    def s(self) -> int:
        return self.circuit.size

    @property
    def out_len(self) -> int:
        return self.map.out_len

    @property
    def blocks(self) -> BlockSpans:
        n, s = self.n, self.s
        return BlockSpans(input=(0, n), internal=(n, n + s), output=(n + s, n + s + 1))


def local_encode(circuit: Circuit, alpha, beta) -> LocalEncoding:
    """The local encoding of ``circuit(alpha) = beta``, with alpha and beta
    normalized into the circuit's field."""
    return LocalEncoding(circuit=circuit, alpha=alpha, beta=beta)


def pad(pmap: PolynomialMap, target_out_len: int) -> PolynomialMap:
    """Pad with fresh seed variables emitted verbatim as new outputs."""
    extra = target_out_len - pmap.out_len
    if extra < 0:
        raise ValueError(f"target {target_out_len} below out_len {pmap.out_len}")
    if extra == 0:
        return pmap
    check_map_size("pad", pmap.seed_len + extra, target_out_len)
    taken = set(pmap.seed_names)
    fresh: list[str] = []
    i = 1
    while len(fresh) < extra:
        name = f"u{i}"
        if name not in taken:
            fresh.append(name)
        i += 1
    field = pmap.field
    new_vars = [Polynomial.variable(field, pmap.seed_len + j) for j in range(extra)]
    return PolynomialMap(
        outputs=pmap.outputs + tuple(new_vars),
        seed_len=pmap.seed_len + extra,
        seed_names=pmap.seed_names + tuple(fresh),
    )


def parallel_compose(pmap: PolynomialMap, copies: int) -> PolynomialMap:
    """Concatenate ``copies`` disjoint-variable copies (block-major: all of
    copy 1's outputs, then copy 2's, ...).  Copy k's seed variable ``v`` is
    renamed ``v_k``."""
    if copies < 1:
        raise ValueError("copies must be >= 1")
    ell = pmap.seed_len
    check_map_size("parallel_compose", copies * ell, copies * pmap.out_len)
    outputs: list[Polynomial] = []
    names: list[str] = []
    for k in range(copies):
        offset = k * ell
        shift = {v: v + offset for v in range(ell)}
        outputs.extend(p.rename_variables(shift) for p in pmap.outputs)
        names.extend(f"{name}_{k + 1}" for name in pmap.seed_names)
    return PolynomialMap(
        outputs=tuple(outputs),
        seed_len=copies * ell,
        seed_names=tuple(names),
    )


def check_map_size(stage: str, seed_len: int, out_len: int) -> None:
    """Refuse a map larger than the term budget before building it."""
    budget = config.term_budget()
    if max(seed_len, out_len) > budget:
        raise BudgetExceededError(
            f"{stage}: seed length {seed_len} and {out_len} outputs exceed budget {budget}"
        )


def compose_polynomial(pmap: PolynomialMap, p: Polynomial) -> Polynomial:
    """p composed with the map: output variable i-1 (id) becomes outputs[i-1];
    the result is a polynomial over the seed variables."""
    _check_support(p, pmap.out_len)
    return p.compose({v: pmap.outputs[v] for v in p.variables()})


def _check_support(p: Polynomial, out_len: int) -> None:
    overflow = [v for v in p.variables() if v >= out_len]
    if overflow:
        raise SupportOverflowError(
            f"polynomial uses variable ids {overflow} >= out_len {out_len}"
        )


def triangular_inverse(
    outputs: Sequence[Polynomial], n_vars: int
) -> list[Polynomial] | None:
    """Inverse of the first n_vars outputs when they are triangular.

    Output j < N = n_vars must read c_j*v_j + g_j(v_0, ..., v_{j-1}) with
    c_j a nonzero constant; then the map psi = (F_0, ..., F_{N-1}) has the
    polynomial inverse psi^-1_j = (z_j - g_j o psi^-1) / c_j, built in the
    order j = 0, 1, ...  Returns [psi^-1_0, ..., psi^-1_{N-1}] over the ids
    0..N-1, or None when an output has another shape or there are fewer
    than N outputs.  For a local encoding psi^-1 of the y-block is exactly
    the gate lifts h_1..h_s.
    """
    if len(outputs) < n_vars:
        return None
    subst: dict[int, Polynomial] = {}
    for j in range(n_vars):
        out = outputs[j]
        f = out.field
        diagonal = Monomial(((j, 1),))
        c = out.coefficient(diagonal)
        if f.is_zero(c):
            return None
        unit = c == f.one
        inv = f.one if unit else f.inv(c)
        minus_inv = f.neg(inv)
        step: dict[Monomial, FieldValue] = {}
        for mono, coeff in out.iter_terms():
            if mono == diagonal:
                step[mono] = inv
            elif mono and mono[-1][0] >= j:
                return None
            else:
                step[mono] = f.neg(coeff) if unit else f.mul(coeff, minus_inv)
        # (v_j - g_j) / c_j with v_j kept as z_j and v_<j replaced by psi^-1.
        subst[j] = Polynomial.variable(f, j)
        subst[j] = Polynomial(f, step).compose(subst)
    return [subst[j] for j in range(n_vars)]


def annihilates(p: Polynomial, pmap: PolynomialMap) -> bool:
    """Exact decision of p(F_0, ..., F_{m-1}) = 0 for the outputs F of pmap
    over its N = seed_len variable ids 0..N-1.

    When the first N outputs are triangular (pmap.inverse, see
    triangular_inverse), each tail variable z_j (j >= N) that p uses is
    replaced, by Horner's rule, with T_j = F_j o psi^-1, and p o F = 0 iff
    the result p(z_0, ..., z_{N-1}, T_N, ...) is zero.  Proof: let tau send
    z_j to F_j and sigma send v_j to psi^-1_j (j < N).  sigma(tau(z_j)) =
    F_j o psi^-1 = z_j by construction of psi^-1, and tau(sigma(v_j)) = v_j
    by induction on j (psi^-1_j o psi = (F_j - g_j(v_<j)) / c_j = v_j), so
    sigma is a ring isomorphism and sigma(p o F) = p(z_<N, T) vanishes iff
    p o F does.  Nothing is sampled or reduced modulo a prime.  Otherwise
    (not triangular in this variable order, or fewer than N outputs) p o F
    is expanded in full by compose_polynomial.  Raises SupportOverflowError
    when p uses an id >= out_len.
    """
    outputs, n_vars = pmap.outputs, pmap.seed_len
    inverse = pmap.inverse
    if inverse is None:
        return compose_polynomial(pmap, p).is_zero()
    _check_support(p, len(outputs))
    subst = dict(enumerate(inverse))
    for j in sorted(v for v in p.variables() if v >= n_vars):
        value = outputs[j].compose(subst)
        coeffs = p.coefficients_in(j)
        p = coeffs[-1]
        for q in reversed(coeffs[:-1]):
            p = p * value + q
    return p.is_zero()

"""Local encodings of circuits, padding, and parallel stretch amplification.

A local encoding turns a circuit together with a claimed evaluation
``circuit(alpha) = beta`` into a degree-<=2 polynomial map on n+s seed
variables (x1..xn for the inputs, y1..ys for the internal gates) with
n+s+1 outputs: the input block x_i - alpha_i, one output per internal gate
relating its y-variable to its children, and the output block y_s - beta.
The system {outputs = 0} is satisfiable iff the claim holds.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from . import config
from .circuit import Circuit, leaf_polynomial
from .errors import CircuitError, InputError, SupportOverflowError
from .fields import FieldValue
from .poly import Monomial, Namespace, Polynomial, fresh_names


@dataclass(frozen=True)
class PolynomialMap:
    """Tuple of polynomials over the first ``seed_len`` variable ids."""

    outputs: tuple[Polynomial, ...]
    seed_len: int
    seed_names: tuple[str, ...]

    def __post_init__(self):
        if not self.outputs:
            raise InputError("a polynomial map needs at least one output")
        if len(self.seed_names) != self.seed_len:
            raise InputError("seed_names length must equal seed_len")
        for i, p in enumerate(self.outputs):
            high = [v for v in p.variables() if v >= self.seed_len]
            if high:
                raise InputError(f"output {i} uses non-seed variable ids {high}")
            if p.field != self.field:
                raise InputError("outputs must share one field")

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
    def inverse(self) -> tuple[dict[int, Polynomial], frozenset[int]]:
        """peel of the outputs, built once per map for every check against it."""
        return peel(self.outputs, self.seed_len)

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
        seeds = {f"y{k}": k for k in range(1, s + 1)}  # y_k names the k-th internal gate
        for name in circuit.input_names:
            if name in seeds:
                raise CircuitError(f"input {config.quote(name)} is the seed name of "
                                   f"internal gate {seeds[name]} of {s}")
        object.__setattr__(self, "alpha", tuple(f.normalize(a) for a in self.alpha))
        object.__setattr__(self, "beta", f.normalize(self.beta))
        # The k-th internal gate's y_k has id n + k - 1, which is len(outputs).
        outputs = [Polynomial.variable(f, i) - Polynomial.constant(f, a)
                   for i, a in enumerate(self.alpha)]

        def gate(child: Polynomial) -> Polynomial:
            y = Polynomial.variable(f, len(outputs))
            outputs.append(y - child)
            return y

        last = circuit.fold(lambda i, g: leaf_polynomial(f, g),
                            lambda i, a, b: gate(a + b), lambda i, a, b: gate(a * b))
        outputs.append(last - Polynomial.constant(f, self.beta))

        names = tuple(circuit.input_names) + tuple(seeds)
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
        raise InputError(f"--pad {config.int_text(target_out_len)} is below the output length "
                         f"{pmap.out_len}")
    if extra == 0:
        return pmap
    config.check_map_size("pad", pmap.seed_len + extra, target_out_len)
    field = pmap.field
    new_vars = [Polynomial.variable(field, pmap.seed_len + j) for j in range(extra)]
    return PolynomialMap(
        outputs=pmap.outputs + tuple(new_vars),
        seed_len=pmap.seed_len + extra,
        seed_names=pmap.seed_names + tuple(fresh_names(pmap.seed_names, extra)),
    )


def parallel_compose(pmap: PolynomialMap, copies: int) -> PolynomialMap:
    """Concatenate ``copies`` disjoint-variable copies (block-major: all of
    copy 1's outputs, then copy 2's, ...).  Copy k's seed variable ``v`` is
    renamed ``v_k``."""
    if copies < 1:
        raise InputError("--copies must be >= 1")
    ell = pmap.seed_len
    config.check_map_size("parallel_compose", copies * ell, copies * pmap.out_len)
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


def peel(outputs: Sequence[Polynomial], n_vars: int) -> tuple[dict, frozenset[int]]:
    """A triangular substitution sigma of the seed variables 0..n_vars-1
    and the set of outputs it pairs.

    While it can, pair the lowest-index output j that reads exactly one
    unpaired variable v, stored as (c*v + g)/den with v not in g, and set
    sigma(v) = (den*z_j - g o sigma)/c.  The k-th variable left unpaired goes
    to the fresh id len(outputs) + k.  Counts of unpaired variables per
    output and a heap of the outputs at count one spare rescans.  Outputs
    triangular in seed order pair v_j with output j."""
    f = outputs[0].field
    p = f.characteristic
    reads = [out.variables() for out in outputs]
    readers: list[list[int]] = [[] for _ in range(n_vars)]
    for j, vs in enumerate(reads):
        for v in vs:
            readers[v].append(j)
    unpaired = [len(vs) for vs in reads]
    ready = [j for j, count in enumerate(unpaired) if count == 1]
    sigma: dict[int, Polynomial] = {}
    paired: set[int] = set()
    while ready:
        j = heapq.heappop(ready)
        if unpaired[j] != 1:
            continue
        (v,) = (u for u in reads[j] if u not in sigma)
        diagonal = Monomial(((v, 1),))
        terms, den = outputs[j].integer_terms()
        step = {diagonal: den}
        for mono, n in terms:
            if mono == diagonal:
                c = n
            elif mono.degree_in(v):
                break  # v occurs other than in c*v
            else:
                step[mono] = -n
        else:
            # (den*v - g) / c, v kept as z_j and the paired variables by sigma:
            # over |c| with c's sign in the numerators, or times c^-1 over F_p.
            up, over = (pow(c, -1, p), 1) if p else (1 if c > 0 else -1, abs(c))
            if up != 1:
                step = {m: n * up for m, n in step.items()}
            sigma[v] = Polynomial.variable(f, j)
            sigma[v] = Polynomial.from_integer_terms(f, step, over).compose(sigma)
            paired.add(j)
            for k in readers[v]:
                unpaired[k] -= 1
                if unpaired[k] == 1:
                    heapq.heappush(ready, k)
    for k, v in enumerate([v for v in range(n_vars) if v not in sigma]):
        sigma[v] = Polynomial.variable(f, len(outputs) + k)
    return sigma, frozenset(paired)


def annihilates(p: Polynomial, pmap: PolynomialMap) -> bool:
    """Exact decision of p(F_0, ..., F_{m-1}) = 0 for the outputs F of pmap.

    With (sigma, paired) = pmap.inverse (see peel), each z_j in p whose
    output is not paired is replaced, by Horner's rule, with
    T_j = F_j o sigma, and p o F = 0 iff the result is zero.  Proof:
    sigma(F_j) = c*sigma(v) + g o sigma = z_j for each paired j, and sending
    z_j to F_j and the fresh id of v to v inverts sigma, by induction on the
    pairing order.  So sigma is a ring isomorphism, and sigma(p o F) =
    p(z_paired, T) vanishes iff p o F does.  With nothing paired (power-sum
    maps) this expands p o F in full.  Nothing is sampled or reduced modulo
    a prime.  Raises SupportOverflowError when p uses an id >= out_len."""
    _check_support(p, pmap.out_len)
    sigma, paired = pmap.inverse
    for j in sorted(v for v in p.variables() if v not in paired):
        value = pmap.outputs[j].compose(sigma)
        *lower, p = p.coefficients_in(j)
        for q in reversed(lower):
            p = p * value + q
    return p.is_zero()

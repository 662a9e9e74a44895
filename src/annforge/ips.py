"""Systems of polynomial equations and (Geometric) ideal-style refutations.

A Geometric refutation r lives on z-variables only (one per equation) and
must satisfy r(f_1, ..., f_m) = 0 with r(0, ..., 0) = 1: it is an annihilator
of the equation map with constant term one.  A Full refutation r(x, z)
must satisfy r(x, f(x)) = 1 and r(x, 0) = 0.  Verification is exact; the
verifier reports the refutation degree alongside acceptance.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .annihilator import principal_generator
from .circuit import evaluate_circuit
from .encoding import LocalEncoding, PolynomialMap, annihilates
from .errors import InvariantError, SupportOverflowError, SystemSatisfiableError
from .poly import Namespace, Polynomial


@dataclass(frozen=True)
class EquationSystem:
    """Polynomials f_1..f_m, each asserted equal to zero, over n_vars
    x-variables (ids 0..n_vars-1).

    ``map`` is the polynomial map (f_1, ..., f_m) over those variables.  It
    is built from the equations unless given; system_of passes the map the
    system came from, so checks share that map's triangular inverse."""

    equations: tuple[Polynomial, ...]
    n_vars: int
    name: str = "system"
    var_names: tuple[str, ...] = ()
    map: PolynomialMap | None = dataclasses.field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.equations:
            raise ValueError("empty equation system")
        names = self.var_names or tuple(f"x{i}" for i in range(1, self.n_vars + 1))
        object.__setattr__(self, "var_names", names)
        if len(names) != self.n_vars:
            raise ValueError("var_names length must equal n_vars")
        for i, eq in enumerate(self.equations):
            bad = [v for v in eq.variables() if v >= self.n_vars]
            if bad:
                raise ValueError(f"equation {i} uses variable ids {bad} >= {self.n_vars}")
        if self.map is None:
            object.__setattr__(self, "map", PolynomialMap(
                outputs=self.equations, seed_len=self.n_vars, seed_names=names))
        elif (self.map.outputs, self.map.seed_len) != (self.equations, self.n_vars):
            raise ValueError("map does not match the equations")

    @property
    def field(self):
        return self.equations[0].field

    @property
    def namespace(self) -> Namespace:
        return Namespace(self.var_names)


@dataclass(frozen=True)
class Refutation:
    kind: str  # "geometric" | "full"
    r: Polynomial

    def __post_init__(self):
        if self.kind not in ("geometric", "full"):
            raise ValueError(f"unknown refutation kind {self.kind!r}")


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: str | None
    degree: int

    def __bool__(self) -> bool:
        return self.accepted


def verify_geometric(ref: Refutation, system: EquationSystem) -> VerifyResult:
    """Accept iff r(f_1, ..., f_m) = 0 exactly and r(0, ..., 0) = 1.

    The composition is decided by encoding.annihilates on the system's map:
    by triangular reduction when the first n_vars equations are triangular
    (as a local encoding's are), else by full expansion."""
    if ref.kind != "geometric":
        raise ValueError("refutation kind must be geometric")
    m = len(system.equations)
    r = ref.r
    bad = [v for v in r.variables() if v >= m]
    if bad:
        raise SupportOverflowError(
            f"refutation uses z-ids {bad} but the system has {m} equations"
        )
    degree = r.degree()
    if r.constant_term() != system.field.one:
        return VerifyResult(False, "constant-term", degree)
    if not annihilates(r, system.map):
        return VerifyResult(False, "composition-nonzero", degree)
    return VerifyResult(True, None, degree)


def verify_full_ips(ref: Refutation, system: EquationSystem) -> VerifyResult:
    """Accept iff r(x, f(x)) = 1 and r(x, 0) = 0, both exact.  The z-block
    occupies ids n_vars..n_vars+m-1."""
    if ref.kind != "full":
        raise ValueError("refutation kind must be full")
    n = system.n_vars
    m = len(system.equations)
    f = system.field
    r = ref.r
    bad = [v for v in r.variables() if v >= n + m]
    if bad:
        raise SupportOverflowError(
            f"refutation uses ids {bad} but the system allows ids < {n + m}"
        )
    degree = r.degree()
    zero = Polynomial.zero(f)
    at_zero = r.substitute({n + j: zero for j in range(m)})
    if not at_zero.is_zero():
        return VerifyResult(False, "zero-substitution-nonzero", degree)
    composed = r.substitute({n + j: system.equations[j] for j in range(m)})
    if composed != Polynomial.constant(f, 1):
        return VerifyResult(False, "composition-not-one", degree)
    return VerifyResult(True, None, degree)


def canonical_geometric_refutation(enc: LocalEncoding) -> Refutation:
    """h scaled to constant term one: h / (beta - f(alpha)).

    Raises SystemSatisfiableError when the encoded claim is true (the
    constant term vanishes and the system has a solution).
    """
    cert = principal_generator(enc)
    f = enc.map.field
    constant = cert.h.constant_term()
    # Cross-check against the circuit-evaluation route.
    value = evaluate_circuit(enc.circuit, enc.alpha)
    if constant != f.sub(enc.beta, value):
        raise InvariantError("h(0) differs from beta - f(alpha)")
    if f.is_zero(constant):
        raise SystemSatisfiableError(
            "circuit(alpha) = beta holds; the encoded system is satisfiable"
        )
    return Refutation(kind="geometric", r=cert.h.scale(f.inv(constant)))


def system_of(pmap: PolynomialMap, name: str = "map_system") -> EquationSystem:
    """The equation system {outputs = 0} of a polynomial map."""
    return EquationSystem(
        equations=pmap.outputs,
        n_vars=pmap.seed_len,
        name=name,
        var_names=pmap.seed_names,
        map=pmap,
    )

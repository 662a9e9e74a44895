"""Systems of polynomial equations and (Geometric) ideal-style refutations.

A Geometric refutation r lives on z-variables only (one per equation) and
must satisfy r(f_1, ..., f_m) = 0 with r(0, ..., 0) = 1: it is an annihilator
of the equation map with constant term one.  A Full refutation r(x, z)
must satisfy r(x, f(x)) = 1 and r(x, 0) = 0.  Verification is exact; the
verifier reports the refutation degree alongside acceptance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .annihilator import principal_generator
from .circuit import evaluate_circuit
from .encoding import LocalEncoding, PolynomialMap, annihilates
from .errors import InputError, InvariantError, SupportOverflowError, SystemSatisfiableError
from .poly import Polynomial


@dataclass(frozen=True)
class EquationSystem:
    """The polynomials f_1..f_m of a map, each asserted equal to zero, over
    the map's seed variables (ids 0..map.seed_len-1).

    The system is its map: checks against it share the map's peel, and the
    map validates the equations."""

    map: PolynomialMap
    name: str = "system"

    @property
    def equations(self) -> tuple[Polynomial, ...]:
        return self.map.outputs


@dataclass(frozen=True)
class Refutation:
    kind: str  # "geometric" | "full"
    r: Polynomial


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: str | None
    degree: int


def verify_geometric(ref: Refutation, system: EquationSystem) -> VerifyResult:
    """Accept iff r(0, ..., 0) = 1 and r(f_1, ..., f_m) = 0, decided exactly
    by encoding.annihilates through the peel of the equations."""
    if ref.kind != "geometric":
        raise InputError("refutation kind must be geometric")
    m = len(system.equations)
    r = ref.r
    bad = [v for v in r.variables() if v >= m]
    if bad:
        raise SupportOverflowError(
            f"refutation uses z-ids {bad} but the system has {m} equations"
        )
    degree = r.degree()
    if r.constant_term() != system.map.field.one:
        return VerifyResult(False, "constant-term", degree)
    if not annihilates(r, system.map):
        return VerifyResult(False, "composition-nonzero", degree)
    return VerifyResult(True, None, degree)


def verify_full_ips(ref: Refutation, system: EquationSystem) -> VerifyResult:
    """Accept iff r(x, f(x)) = 1 and r(x, 0) = 0, both exact.  The z-block
    occupies ids n..n+m-1, n the map's seed length."""
    if ref.kind != "full":
        raise InputError("refutation kind must be full")
    n = system.map.seed_len
    m = len(system.equations)
    f = system.map.field
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


def system_of(pmap: PolynomialMap) -> EquationSystem:
    """The equation system {outputs = 0} of a polynomial map."""
    return EquationSystem(pmap, "map_system")

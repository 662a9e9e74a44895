"""Exact computer algebra for circuit local encodings: hitting-set-style
polynomial maps, principal annihilator synthesis and verification,
polynomial identity testing, and geometric refutation checking."""

from .annihilator import (
    AnnihilatorCertificate,
    annihilator_basis_search,
    decompose,
    extract_hard_multiple,
    principal_generator,
    synthesize_gate_lifts,
    verify_annihilates,
)
from .circuit import (
    Circuit,
    CircuitBuilder,
    Gate,
    circuit_from_polynomial,
    evaluate_circuit,
    expand,
    metrics,
    parse_circuit,
    random_circuit,
    serialize_circuit,
)
from .encoding import (
    LocalEncoding,
    PolynomialMap,
    compose_polynomial,
    local_encode,
    pad,
    parallel_compose,
)
from .fields import QQ, Field, PrimeField, RationalField
from .ips import (
    EquationSystem,
    Refutation,
    canonical_geometric_refutation,
    system_of,
    verify_full_ips,
    verify_geometric,
)
from .linalg import (
    PolyMatrix,
    jacobian,
    rank_random_eval,
    resultant,
    resultant_with_cofactors,
    sylvester,
)
from .pit import HitResult, PitVerdict, generator_pit, hit_test, sz_pit
from .poly import Monomial, Namespace, Polynomial, format_polynomial, parse_polynomial

__version__ = "0.1.0"

__all__ = [
    "AnnihilatorCertificate",
    "Circuit",
    "CircuitBuilder",
    "EquationSystem",
    "Field",
    "Gate",
    "HitResult",
    "LocalEncoding",
    "Monomial",
    "Namespace",
    "PitVerdict",
    "PolyMatrix",
    "Polynomial",
    "PolynomialMap",
    "PrimeField",
    "QQ",
    "RationalField",
    "Refutation",
    "annihilator_basis_search",
    "canonical_geometric_refutation",
    "circuit_from_polynomial",
    "compose_polynomial",
    "decompose",
    "evaluate_circuit",
    "expand",
    "extract_hard_multiple",
    "format_polynomial",
    "generator_pit",
    "hit_test",
    "jacobian",
    "local_encode",
    "metrics",
    "pad",
    "parallel_compose",
    "parse_circuit",
    "parse_polynomial",
    "principal_generator",
    "random_circuit",
    "rank_random_eval",
    "resultant",
    "resultant_with_cofactors",
    "serialize_circuit",
    "sylvester",
    "system_of",
    "synthesize_gate_lifts",
    "sz_pit",
    "verify_annihilates",
    "verify_full_ips",
    "verify_geometric",
]

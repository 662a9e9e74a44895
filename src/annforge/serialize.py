"""JSON readers/writers for the file formats the CLI exchanges.

All writers emit deterministic key order (plain dict literals below), so
identical objects serialize byte-identically; readers accept the minimal
schemas ({seed_len, outputs} for maps, {equations} for systems, {kind, r}
for refutations) and default the field to the rationals, a refutation's to
its system's, which a stated one must equal.  Variable names
default to natural-sorted identifiers collected from the polynomial texts.
"""

from __future__ import annotations

import dataclasses
import functools
import json

from . import config
from .annihilator import AnnihilatorCertificate
from .circuit import parse_circuit, serialize_circuit
from .encoding import BlockSpans, LocalEncoding, PolynomialMap, local_encode
from .errors import ParseError
from .fields import QQ, Field, PrimeField, check_same_field
from .ips import EquationSystem, Refutation
from .poly import Namespace, format_polynomial, fresh_names, parse_polynomial


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _reader(read):
    """Report a missing or mistyped key in ``read``'s input as a ParseError."""

    @functools.wraps(read)
    def checked(*args):
        try:
            return read(*args)
        except KeyError as exc:
            raise ParseError(f"{read.__name__}: missing key {exc}") from exc
        except (TypeError, AttributeError, OverflowError, ValueError) as exc:
            raise ParseError(f"{read.__name__}: mistyped value ({exc})") from exc

    return checked


def _integer(value, what: str) -> int:
    """``value``, which must be a JSON integer: not a boolean or a string."""
    if type(value) is not int:
        raise ParseError(f"{what} must be a JSON integer, not a {type(value).__name__}")
    return value


def _field(obj: dict) -> Field:
    """The field a file states; a file that states none is over QQ."""
    spec = obj.get("field", {"type": "rational"})
    if spec.get("type") == "rational":
        return QQ
    if spec.get("type") == "prime":
        return PrimeField(_integer(spec["p"], "field.p"))
    raise ParseError(f"unknown field JSON {config.quote(spec)}")


# -- polynomial maps ----------------------------------------------------------


def map_to_json(pmap: PolynomialMap) -> dict:
    ns = pmap.seed_namespace
    return {
        "schema_version": 1,
        "kind": "polynomial_map",
        "field": pmap.field.to_json(),
        "seed_len": pmap.seed_len,
        "seed_names": list(pmap.seed_names),
        "outputs": [format_polynomial(p, ns) for p in pmap.outputs],
    }


@_reader
def map_from_json(obj: dict) -> PolynomialMap:
    field = _field(obj)
    texts = obj["outputs"]
    seed_len = _integer(obj["seed_len"], "seed_len")
    if "seed_names" in obj:
        names = list(obj["seed_names"])
    else:
        names = list(Namespace.inferred(texts).names)
        if len(names) < seed_len:
            config.check_map_size("map_from_json", seed_len, len(texts))
            names += fresh_names(names, seed_len - len(names))
    if len(names) != seed_len:
        raise ParseError(f"seed_names has {len(names)} entries, seed_len is {seed_len}")
    ns = Namespace(names)
    outputs = tuple(parse_polynomial(t, field, ns) for t in texts)
    return PolynomialMap(outputs=outputs, seed_len=seed_len, seed_names=tuple(names))


# -- local encodings ----------------------------------------------------------


def encoding_to_json(enc: LocalEncoding) -> dict:
    obj = map_to_json(enc.map)
    obj["kind"] = "local_encoding"
    obj["blocks"] = _blocks_to_json(enc.blocks)
    field = enc.map.field
    obj["provenance"] = {
        "type": "local_encoding",
        "circuit": serialize_circuit(enc.circuit),
        "alpha": [field.format_value(a) for a in enc.alpha],
        "beta": field.format_value(enc.beta),
    }
    return obj


def _blocks_to_json(blocks: BlockSpans) -> dict:
    return {name: list(span) for name, span in dataclasses.asdict(blocks).items()}


@_reader
def encoding_from_json(obj: dict) -> LocalEncoding:
    """Rebuild from provenance alone; outputs, seed_len and any seed_names
    and blocks must be as encoding_to_json writes them (canonical text)."""
    prov = obj.get("provenance")
    if not prov or prov.get("type") != "local_encoding":
        raise ParseError("JSON lacks local_encoding provenance")
    field = _field(obj)
    circuit = parse_circuit(prov["circuit"], field)
    alpha = [field.parse_value(a) for a in prov["alpha"]]
    beta = field.parse_value(prov["beta"])
    enc = local_encode(circuit, alpha, beta)
    written = encoding_to_json(enc)
    for key in ("outputs", "seed_len", "seed_names", "blocks"):
        stored = obj[key] if key in ("outputs", "seed_len") else obj.get(key, written[key])
        if stored != written[key]:
            raise ParseError(f"stored {key} disagree with provenance reconstruction")
    return enc


# -- certificates -------------------------------------------------------------


def certificate_to_json(cert: AnnihilatorCertificate) -> dict:
    enc = cert.encoding
    zs = Namespace.outputs(enc.out_len)
    return {
        "schema_version": 1,
        "kind": "annihilator_certificate",
        "field": enc.map.field.to_json(),
        "n": enc.n,
        "s": enc.s,
        "h": format_polynomial(cert.h, zs),
        "gate_lifts": [format_polynomial(p, zs) for p in cert.gate_lifts],
        "lift_gate_count": cert.lift_gate_count,
        "encoding": encoding_to_json(enc),
    }


# -- equation systems and refutations ------------------------------------------


def system_to_json(system: EquationSystem) -> dict:
    pmap = system.map
    ns = pmap.seed_namespace
    return {
        "schema_version": 1,
        "kind": "equation_system",
        "field": pmap.field.to_json(),
        "name": system.name,
        "n_vars": pmap.seed_len,
        "var_names": list(pmap.seed_names),
        "equations": [format_polynomial(p, ns) for p in pmap.outputs],
    }


@_reader
def system_from_json(obj: dict) -> EquationSystem:
    field = _field(obj)
    texts = obj["equations"]
    if "var_names" in obj:
        names = list(obj["var_names"])
    else:
        names = list(Namespace.inferred(texts).names)
    n_vars = _integer(obj.get("n_vars", len(names)), "n_vars")
    if len(names) != n_vars:
        raise ParseError(f"var_names has {len(names)} entries, n_vars is {n_vars}")
    ns = Namespace(names)
    equations = tuple(parse_polynomial(t, field, ns) for t in texts)
    pmap = PolynomialMap(outputs=equations, seed_len=n_vars, seed_names=tuple(names))
    return EquationSystem(pmap, obj.get("name", "system"))


def _refutation_namespace(kind: str, system: EquationSystem) -> Namespace:
    """The names r is written in: z1..zm for a geometric refutation, the
    system's names and then z1..zm for a full one (m equations)."""
    m = len(system.equations)
    if kind == "geometric":
        return Namespace.outputs(m)
    if kind == "full":
        return system.map.seed_namespace.extended(Namespace.outputs(m).names)
    raise ParseError(f"unknown refutation kind {config.quote(kind)}")


def refutation_to_json(ref: Refutation, system: EquationSystem) -> dict:
    return {
        "schema_version": 1,
        "kind": ref.kind,
        "field": system.map.field.to_json(),
        "r": format_polynomial(ref.r, _refutation_namespace(ref.kind, system)),
    }


@_reader
def refutation_from_json(obj: dict, system: EquationSystem) -> Refutation:
    if "field" in obj:
        check_same_field(_field(obj), system.map.field)
    kind = obj["kind"]
    ns = _refutation_namespace(kind, system)
    return Refutation(kind=kind, r=parse_polynomial(obj["r"], system.map.field, ns))

"""Command-line front end.

Exit codes: 0 = success / Accept / verdict matches --expect; 1 = verification
Reject or Fooled (or verdict mismatch); 2 = usage error; 3 = budget or
search-space guard exceeded.  With --json a machine-readable report
(schema_version 1, the command, its fields, and last the --out path where the
command has --out) is printed to stdout; every randomized command echoes its
seed in the report.  On stderr, commands print each warning as one
``warning:`` line and main each refusal as one ``error [<code>]: <message>``
line, the code being the AnnforgeError's or, for a file it cannot open,
decode or read as JSON, ``input.unreadable``; anything else is a fault.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from fractions import Fraction

from . import config
from .annihilator import annihilator_basis_search, principal_generator, verify_annihilates
from .circuit import metrics, parse_circuit
from .encoding import local_encode, pad, parallel_compose
from .errors import AnnforgeError, InputError, InvariantError, ParseError, ResourceLimitError
from .fields import PrimeField, field_from_spec
from .instances import (
    det_circuit,
    encode_3cnf,
    kayal_chain_map,
    kayal_map,
    masser_philippon_system,
    parse_dimacs,
)
from .ips import canonical_geometric_refutation, system_of, verify_full_ips, verify_geometric
from .linalg import (
    evaluation_field,
    jacobian,
    rank_random_eval,
    resultant,
    resultant_with_cofactors,
)
from .pit import HitResult, generator_pit, hit_test, sz_pit
from .poly import Namespace, format_polynomial, parse_polynomial
from .serialize import (
    certificate_to_json,
    dumps,
    encoding_from_json,
    encoding_to_json,
    map_from_json,
    map_to_json,
    refutation_from_json,
    refutation_to_json,
    serialize_circuit,
    system_from_json,
    system_to_json,
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_json(path: str) -> dict:
    """The JSON value in ``path``, with integers as its only numbers."""

    def refuse(text: str):
        raise ParseError(f"{path}: {config.quote(text, str)} is not a JSON integer")

    try:
        return json.loads(_read(path), parse_float=refuse, parse_constant=refuse,
                          parse_int=lambda s: config.read_int(s, f"{path}: an integer"))
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc


def _int_arg(text: str) -> int:
    """An integer option, as config.read_int reads it; argparse refuses any
    other value as a usage error."""
    value = config.read_int(text, "the value", argparse.ArgumentTypeError)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {config.quote(text)}")
    return value


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse_alpha(text: str, field) -> list:
    if text.strip() == "":
        return []
    return [field.parse_value(part) for part in text.split(",")]


def _write_out(args, text: str) -> list[str]:
    """Write ``text`` to --out, if given: the report line saying so, or none."""
    if not args.out:
        return []
    _write(args.out, text)
    return [f"wrote {args.out}"]


def _warn(message) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _warn_small_characteristic(field, degree_bound: int) -> None:
    """The small-characteristic regime is out of the artifact's warranty."""
    if isinstance(field, PrimeField) and field.p <= degree_bound:
        _warn(f"field characteristic {field.p} <= degree bound "
              f"{config.int_text(degree_bound)}; results may not transfer")


def _map_summary(pmap) -> dict:
    config.exact_text(pmap.degree, "the map's degree")  # every report states it
    return {"seed_len": pmap.seed_len, "out_len": pmap.out_len,
            "stretch": pmap.stretch, "degree": pmap.degree}


def _emit(args, report: dict, lines: list[str]) -> None:
    """Print ``lines``, or with --json the report: schema_version, the
    command, the report's fields, and last the --out path where the command
    has --out."""
    if args.json:
        out = {"out": args.out} if "out" in vars(args) else {}
        print(json.dumps({"schema_version": 1, "command": args.command, **report, **out},
                         indent=2))
    else:
        for line in lines:
            print(line)


def cmd_encode(args) -> int:
    field = field_from_spec(args.field)
    circuit = parse_circuit(_read(args.circuit), field)
    alpha = _parse_alpha(args.alpha, field)
    beta = field.parse_value(args.beta)
    enc = local_encode(circuit, alpha, beta)
    m = enc.map
    wrote = _write_out(args, dumps(encoding_to_json(enc)))
    _emit(
        args,
        _map_summary(m),
        [
            f"encoded {circuit.name}: seed {m.seed_len} -> out {m.out_len} "
            f"(stretch {m.stretch}, degree {m.degree})"
        ]
        + wrote,
    )
    return 0


def cmd_annihilate(args) -> int:
    enc = encoding_from_json(_read_json(args.encoding))
    cert = principal_generator(enc)
    payload = certificate_to_json(cert)
    wrote = _write_out(args, dumps(payload))
    _emit(
        args,
        {
            "h": payload["h"],
            "degree": cert.h.degree(),
            "lift_gate_count": cert.lift_gate_count,
        },
        [
            f"h = {payload['h']}",
            f"degree {cert.h.degree()}, straight-line lift gates {cert.lift_gate_count}",
        ]
        + wrote,
    )
    return 0


def cmd_search_ann(args) -> int:
    pmap = map_from_json(_read_json(args.map))
    _warn_small_characteristic(pmap.field, pmap.degree * args.degree)
    basis = annihilator_basis_search(pmap, args.degree)
    zs = Namespace.outputs(pmap.out_len)
    texts = [format_polynomial(p, zs) for p in basis]
    _emit(
        args,
        {
            "degree": args.degree,
            "dimension": len(basis),
            "basis": texts,
        },
        [f"annihilator space at degree <= {args.degree}: dimension {len(basis)}"]
        + [f"  {t}" for t in texts],
    )
    return 0


def cmd_verify(args) -> int:
    enc = encoding_from_json(_read_json(args.encoding))
    zs = Namespace.outputs(enc.out_len)
    poly = parse_polynomial(_read(args.poly), enc.map.field, zs)
    ok = verify_annihilates(poly, enc.map)
    _emit(
        args,
        {"annihilates": ok},
        ["annihilates: yes" if ok else "annihilates: no"],
    )
    return 0 if ok else 1


def cmd_pit(args) -> int:
    if args.map and args.grid is not None or not args.map and args.mode:
        flag, when = ("--grid", "with") if args.map else ("--mode", "without")
        raise InputError(f"{flag} does not apply {when} --map")
    field = field_from_spec(args.field)
    circuit = parse_circuit(_read(args.circuit), field)
    d = metrics(circuit).degree_bound
    _warn_small_characteristic(field, 2 * d)
    if args.map:
        pmap = map_from_json(_read_json(args.map))
        verdict = generator_pit(
            circuit, pmap, mode=args.mode or "symbolic", trials=args.trials, seed=args.seed
        )
    else:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            verdict = sz_pit(circuit, trials=args.trials, grid_size=args.grid, seed=args.seed)
        for caught_warning in caught:
            _warn(caught_warning.message)
    bound = config.exact_text(verdict.failure_bound,
                              f"--trials {config.int_text(args.trials)}: the failure bound")
    report = {
        "verdict": verdict.verdict,
        "trials_run": verdict.trials_run,
        "failure_bound": bound,
        "seed": verdict.seed,
        "mode": verdict.mode,
    }
    if verdict.witness is not None:
        report["witness"] = [field.format_value(v) for v in verdict.witness]
    lines = [f"verdict: {verdict.verdict} (trials {verdict.trials_run}, "
             f"failure bound {bound})"]
    _emit(args, report, lines)
    if args.expect:
        return 0 if verdict.verdict == args.expect else 1
    return 0


def cmd_hit(args) -> int:
    pmap = map_from_json(_read_json(args.map))
    zs = Namespace.outputs(pmap.out_len)
    poly = parse_polynomial(_read(args.poly), pmap.field, zs)
    result = hit_test(pmap, poly)
    _emit(
        args,
        {"result": result.value},
        [f"result: {result.value}"],
    )
    return 1 if result is HitResult.FOOLED else 0


def cmd_jacobian(args) -> int:
    obj = _read_json(args.polys)
    field = field_from_spec(args.field)
    texts = obj.get("polynomials") if isinstance(obj, dict) else obj
    names = obj.get("var_names") if isinstance(obj, dict) else None
    if not _is_str_list(texts) or not (names is None or _is_str_list(names)):
        raise ParseError(
            f"{args.polys}: expected a list of polynomial texts or an object with "
            "'polynomials' (and optional 'var_names') lists of strings"
        )
    ns = Namespace(names) if names is not None else Namespace.inferred(texts)
    polys = [parse_polynomial(t, field, ns) for t in texts]
    prime = evaluation_field(field, args.trials, args.prime).p  # before the constant shortcut
    variables = sorted(set().union(set(), *[p.variables() for p in polys]))
    if not variables:
        _emit(args, {"rank_lower_bound": 0},
              ["all polynomials constant: rank 0"])
        return 0
    mat = jacobian(polys, variables)
    rank = rank_random_eval(mat, trials=args.trials, p=prime, seed=args.seed)
    # Schwartz-Zippel: each trial misses a nonzero minor with prob <= deg/p.
    deg = max(mat.max_entry_degree(), 0) * min(mat.rows, mat.cols)
    bound = config.exact_text(min(Fraction(max(deg, 1), prime), Fraction(1)) ** args.trials,
                              f"--trials {config.int_text(args.trials)}: the failure bound")
    _emit(
        args,
        {
            "rows": mat.rows,
            "cols": mat.cols,
            "rank_lower_bound": rank,
            "trials": args.trials,
            "prime": prime,
            "seed": args.seed,
            "failure_bound": bound,
        },
        [
            f"jacobian is {mat.rows}x{mat.cols}; rank >= {rank} "
            f"(exact with prob >= 1 - {bound})"
        ],
    )
    return 0


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(t, str) for t in value)


def cmd_resultant(args) -> int:
    field = field_from_spec(args.field)
    ns = Namespace.inferred([args.f, args.g, args.var])
    f_poly = parse_polynomial(args.f, field, ns)
    g_poly = parse_polynomial(args.g, field, ns)
    var = ns.id(args.var)
    if args.cofactors:
        res, u, v = (format_polynomial(p, ns)
                     for p in resultant_with_cofactors(f_poly, g_poly, var))
        report = {"resultant": res, "u": u, "v": v}
        lines = [f"res = {res}", f"u = {u}", f"v = {v}"]
    else:
        res = format_polynomial(resultant(f_poly, g_poly, var), ns)
        report = {"resultant": res}
        lines = [f"res = {res}"]
    _emit(args, report, lines)
    return 0


def cmd_ips_verify(args) -> int:
    system = system_from_json(_read_json(args.system))
    ref = refutation_from_json(_read_json(args.refutation), system)
    kind = args.kind or ref.kind
    if kind != ref.kind:
        raise InputError(f"refutation file has kind {ref.kind}, --kind says {kind}")
    result = verify_geometric(ref, system) if kind == "geometric" \
        else verify_full_ips(ref, system)
    degree = config.exact_text(result.degree, "the refutation degree")
    _emit(
        args,
        {
            "kind": kind,
            "accepted": result.accepted,
            "reason": result.reason,
            "degree": result.degree,
        },
        [
            f"{'Accept' if result.accepted else 'Reject'}"
            + (f" ({result.reason})" if result.reason else "")
            + f", refutation degree {degree}"
        ],
    )
    return 0 if result.accepted else 1


def cmd_ips_refute(args) -> int:
    enc = encoding_from_json(_read_json(args.encoding))
    ref = canonical_geometric_refutation(enc)
    system = system_of(enc.map)
    check = verify_geometric(ref, system)
    if not check.accepted:
        raise InvariantError(f"canonical refutation does not verify ({check.reason})")
    payload = refutation_to_json(ref, system)
    wrote = _write_out(args, dumps(payload))
    if args.system_out:
        _write(args.system_out, dumps(system_to_json(system)))
    _emit(
        args,
        {
            "kind": "geometric",
            "degree": check.degree,
            "r": payload["r"],
        },
        [f"r = {payload['r']}", f"degree {check.degree}"] + wrote,
    )
    return 0


def cmd_instance(args) -> int:
    field = field_from_spec(args.field)
    if args.family == "kayal":
        payload = dumps(map_to_json(kayal_map(args.n, args.d, field)))
        desc = f"kayal n={args.n} d={args.d}"
    elif args.family == "kayal-chain":
        payload = dumps(map_to_json(kayal_chain_map(args.n, args.d, field)))
        desc = f"kayal-chain n={args.n} d={args.d}"
    elif args.family == "masser-philippon":
        payload = dumps(system_to_json(masser_philippon_system(args.n, args.d, field)))
        desc = f"masser-philippon n={args.n} d={args.d}"
    elif args.family == "det":
        payload = serialize_circuit(det_circuit(args.n, field))
        desc = f"det n={args.n}"
    else:  # cnf3
        if not args.cnf:
            raise InputError("--cnf <file> required for family cnf3")
        clauses, n_vars = parse_dimacs(_read(args.cnf))
        payload = dumps(system_to_json(encode_3cnf(clauses, n_vars, field)))
        desc = f"cnf3 with {len(clauses)} clauses on {n_vars} variables"
    report = {"family": args.family}
    if args.out:
        _write(args.out, payload)
        lines = [f"wrote {desc} to {args.out}"]
    else:  # the payload is the output, and with --json a field of the report
        report["payload"] = payload
        lines = [payload.removesuffix("\n")]
    _emit(args, report, lines)
    return 0


def cmd_stretch(args) -> int:
    pmap = map_from_json(_read_json(args.map))
    out = parallel_compose(pmap, args.copies)
    if args.pad:
        out = pad(out, args.pad)
    summary = _map_summary(out)
    wrote = _write_out(args, dumps(map_to_json(out)))
    _emit(
        args,
        {"copies": args.copies, **summary},
        [
            f"{args.copies} copies: seed {out.seed_len} -> out {out.out_len} "
            f"(stretch {out.stretch}, degree {out.degree})"
        ]
        + wrote,
    )
    return 0


def cmd_metrics(args) -> int:
    if args.encoding and args.field is not None:
        raise InputError("--field does not apply with --encoding")
    if args.circuit:
        field = field_from_spec(args.field or "rational")
        circuit = parse_circuit(_read(args.circuit), field)
        m = metrics(circuit)
        degree_bound = config.exact_text(m.degree_bound, "the degree bound")
        report = {
            "size": m.size,
            "depth": m.depth,
            "degree_bound": m.degree_bound,
        }
        lines = [f"size {m.size}, depth {m.depth}, degree bound {degree_bound}"]
    else:
        m = encoding_from_json(_read_json(args.encoding)).map
        # Every output is one subtraction, plus one add or mul for an
        # internal gate, and a local encoding has at least one internal gate.
        max_formula_size = 2
        report = {**_map_summary(m), "max_formula_size": max_formula_size}
        lines = [
            f"seed {m.seed_len}, out {m.out_len}, stretch {m.stretch}, "
            f"degree {m.degree}, per-output formula size <= {max_formula_size}"
        ]
    _emit(args, report, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annforge",
        description="Local encodings, annihilator ideals, identity testing, "
        "and geometric refutations for arithmetic circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, field: bool = False) -> argparse.ArgumentParser:
        """--json everywhere; --field only where no input file fixes the field."""
        p.add_argument("--json", action="store_true", help="JSON report on stdout")
        if field:
            p.add_argument("--field", default="rational",
                           help="rational (default) or prime:<p>")
        return p

    p = common(sub.add_parser("encode", help="build a local encoding"), field=True)
    p.add_argument("--circuit", required=True)
    p.add_argument("--alpha", required=True, help="comma-separated field values")
    p.add_argument("--beta", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_encode)

    p = common(sub.add_parser("annihilate", help="synthesize the principal generator"))
    p.add_argument("--encoding", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_annihilate)

    p = common(sub.add_parser("search-ann", help="degree-bounded kernel search"))
    p.add_argument("--map", required=True)
    p.add_argument("--degree", type=_int_arg, required=True)
    p.set_defaults(func=cmd_search_ann)

    p = common(sub.add_parser("verify", help="check that a polynomial annihilates"))
    p.add_argument("--encoding", required=True)
    p.add_argument("--poly", required=True, help="file with polynomial text over z1..")
    p.set_defaults(func=cmd_verify)

    p = common(sub.add_parser("pit", help="polynomial identity testing"), field=True)
    p.add_argument("--circuit", required=True)
    p.add_argument("--trials", type=_int_arg, default=10)
    p.add_argument("--grid", type=_int_arg, default=None, help="grid side (without --map)")
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--map", help="test the composition with this map instead")
    p.add_argument("--mode", choices=["symbolic", "randomized", "deterministic_grid"],
                   help="with --map only (default symbolic)")
    p.add_argument("--expect", choices=["zero", "nonzero"])
    p.set_defaults(func=cmd_pit)

    p = common(sub.add_parser("hit", help="hit/fooled classification"))
    p.add_argument("--map", required=True)
    p.add_argument("--poly", required=True)
    p.set_defaults(func=cmd_hit)

    p = common(sub.add_parser("jacobian", help="randomized Jacobian rank"), field=True)
    p.add_argument("--polys", required=True,
                   help="JSON file: [poly-text, ...] or {polynomials, var_names}")
    p.add_argument("--trials", type=_int_arg, default=config.DEFAULT_TRIALS)
    p.add_argument("--prime", type=_int_arg, default=config.DEFAULT_PRIME)
    p.add_argument("--seed", type=_int_arg, default=0)
    p.set_defaults(func=cmd_jacobian)

    p = common(sub.add_parser("resultant", help="Sylvester resultant"), field=True)
    p.add_argument("--f", required=True, help="polynomial text")
    p.add_argument("--g", required=True, help="polynomial text")
    p.add_argument("--var", required=True)
    p.add_argument("--cofactors", action="store_true")
    p.set_defaults(func=cmd_resultant)

    p = common(sub.add_parser("ips-verify", help="verify a refutation"))
    p.add_argument("--system", required=True)
    p.add_argument("--refutation", required=True)
    p.add_argument("--kind", choices=["geometric", "full"])
    p.set_defaults(func=cmd_ips_verify)

    p = common(sub.add_parser("ips-refute", help="canonical geometric refutation"))
    p.add_argument("--encoding", required=True)
    p.add_argument("--out")
    p.add_argument("--system-out", dest="system_out",
                   help="also write the encoding's equation system")
    p.set_defaults(func=cmd_ips_refute)

    p = common(sub.add_parser("instance", help="build a named instance"), field=True)
    p.add_argument("--family", required=True,
                   choices=["kayal", "kayal-chain", "masser-philippon", "det", "cnf3"])
    p.add_argument("--n", type=_int_arg, default=2)
    p.add_argument("--d", type=_int_arg, default=2)
    p.add_argument("--cnf", help="DIMACS-like 3CNF file (family cnf3)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_instance)

    p = common(sub.add_parser("stretch", help="parallel copies and padding"))
    p.add_argument("--map", required=True)
    p.add_argument("--copies", type=_int_arg, required=True)
    p.add_argument("--pad", type=_int_arg, default=None,
                   help="pad the result to this output length")
    p.add_argument("--out")
    p.set_defaults(func=cmd_stretch)

    p = common(sub.add_parser("metrics", help="circuit or encoding metrics"), field=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--circuit")
    group.add_argument("--encoding")
    p.set_defaults(func=cmd_metrics, field=None)  # the encoding file fixes its field

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if [] in vars(args).values():
            # argparse reads "--opt=--" as an empty list; no option takes a list.
            raise InputError("'--' is not an option value")
        for name in config.ENV_LIMITS:  # a bad limit is refused by every command
            config.env_limit(name)
        return args.func(args)
    except AnnforgeError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ResourceLimitError) else 2
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error [input.unreadable]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

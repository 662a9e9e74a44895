"""Every statement line of ``src/annforge`` that no CLI call and no benchmark
op runs is listed here with the reason it stays, and every listed line
still does not run.

``scripts/reach.py`` replays the transcript corpus and one round of each
benchmark corpus under a line tracer and prints the lines that never ran;
it runs in a fresh interpreter, once under ``PYTHONHASHSEED=0`` and once
under a random seed, side by side.  An entry is keyed by the function's
qualname and the line's stripped text, not by line number, so an edit
elsewhere in a file leaves the list alone.  A new unrun line is either
reached by a transcript call, deleted, or listed; a listed line that now
runs, or is gone, leaves the list."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import annforge

REACH = Path(__file__).resolve().parents[1] / "scripts" / "reach.py"

_IPS_GUARD = ("a library-entry guard: ips-verify picks the check by the file's kind and "
              "reads r in the system's names, so neither can fail from a command")

#: module.qualname -> (why these lines stay unrun, the stripped text of each)
ALLOWED = {
    "annihilator.decompose": (
        "the paper's split of h into f(z + alpha) - beta and a term in the gate ideal "
        "(acceptance criterion 3); no command exposes it yet (ROADMAP item 8)",
        ["enc = cert.encoding",
         "f = enc.map.field",
         "n, s = enc.n, enc.s",
         "circuit_poly = expand(enc.circuit)",
         "shift = {i: Polynomial.variable(f, i) + Polynomial.constant(f, enc.alpha[i])",
         "f_shifted = circuit_poly.substitute(shift)",
         "last = Polynomial.variable(f, n + s)",
         "g = cert.h - last + f_shifted - Polynomial.constant(f, enc.beta)",
         "zero = Polynomial.zero(f)",
         "kill_gate_vars = {n + j: zero for j in range(s)}",
         "if not g.substitute(kill_gate_vars).is_zero():",
         'raise DecompositionMismatchError("g does not vanish at z_{n+1}=...=z_{n+s}=0")',
         "return Decomposition(f_shifted=f_shifted, g=g)"]),
    "annihilator.extract_hard_multiple": (
        "the paper's recovery of a multiple of f - beta from any annihilator "
        "(acceptance criterion 10); no command exposes it yet (ROADMAP item 8)",
        ["if p.is_zero():",
         'raise NotAnAnnihilatorError("zero polynomial")',
         "if not verify_annihilates(p, enc.map):",
         'raise NotAnAnnihilatorError("polynomial does not annihilate the encoding")',
         "f = enc.map.field",
         "n = enc.n",
         "w = enc.out_len  # fresh variable id, one past the z block",
         "subst: dict[int, Polynomial] = {}",
         "for i in range(n):",
         "subst[i] = Polynomial.variable(f, i) - Polynomial.constant(f, enc.alpha[i])",
         "for i in range(n, enc.out_len):",
         "subst[i] = Polynomial.monomial(f, f.one, {w: 1, i: 1})",
         "image = p.substitute(subst)",
         "min_power = min(m.degree_in(w) for m, _ in image.iter_terms())",
         "return image.coefficients_in(w)[min_power]"]),
    "annihilator.synthesize_gate_lifts": (
        "InvariantError: the peel pairs every seed of a local encoding",
        ['raise InvariantError("the peel leaves a seed variable of the local encoding '
         'unpaired")']),
    "circuit.Circuit.__post_init__": (
        "library-entry guards: parse_circuit and CircuitBuilder build only valid circuits, "
        "so only a Circuit built by hand fails them",
        ['raise CircuitError("input_names length must match n_inputs")',
         'raise CircuitError(f"gate {i} must be input x{i + 1}")',
         'raise CircuitError("input gates must occupy ids 0..n_inputs-1")',
         'raise CircuitError(f"gate {i} references a non-earlier gate")',
         'raise CircuitError("output gate id out of range")',
         'raise CircuitError("output must be the last internal gate")']),
    "circuit.CircuitBuilder.input": (
        "a library-entry guard: the package's callers pass input ids below n_inputs",
        ['raise CircuitError(f"input index {i} out of range")']),
    "circuit.CircuitBuilder.tree_reduce": (
        "library-entry guards: the package's callers pass add or mul and a nonempty list",
        ['raise CircuitError(f"unknown reduction op {config.quote(op)}")',
         'raise CircuitError("tree_reduce over an empty operand list")']),
    "circuit.circuit_from_polynomial": (
        "the circuit of the zero polynomial; the evaluate workload converts nonzero "
        "generators only",
        ["return b.build(b.const(0))"]),
    "circuit.evaluate_circuit": (
        "a library-entry guard: the package's callers pass a point of the circuit's length",
        ['raise CircuitError(f"expected {circuit.n_inputs} inputs, got {len(point)}")']),
    "circuit.random_circuit": (
        "library-entry guards: the benchmark asks for valid sizes",
        ['raise CircuitError("size must be >= 1")',
         'raise CircuitError("a random circuit needs an input or a constant to start from")']),
    "cli.cmd_ips_refute": (
        "InvariantError: the canonical refutation verifies",
        ['raise InvariantError(f"canonical refutation does not verify ({check.reason})")']),
    "encoding.PolynomialMap.__post_init__": (
        "library-entry guards: the readers and the package's constructors build "
        "consistent maps",
        ['raise InputError("seed_names length must equal seed_len")',
         'raise InputError(f"output {i} uses non-seed variable ids {high}")',
         'raise InputError("outputs must share one field")']),
    "encoding._check_support": (
        "a library-entry guard: commands read polynomials in the map's output names, so "
        "no id passes out_len",
        ["raise SupportOverflowError("]),
    "encoding.compose_polynomial": (
        "the plain composition, which perfbench/tracing.py traces by name; annihilation "
        "is decided by encoding.annihilates",
        ["_check_support(p, pmap.out_len)",
         "return p.compose({v: pmap.outputs[v] for v in p.variables()})"]),
    "fields.PrimeField.__hash__": (
        "a field defines __eq__, so it defines __hash__ to stay hashable",
        ['return hash(("prime", self.p))']),
    "fields.PrimeField.add": (
        "the field interface's addition, which the reference oracles in tests/ call; the "
        "package adds the stored integers directly",
        ["return (a + b) % self.p"]),
    "fields.PrimeField.inv": (
        "inverse of zero, a ZeroDivisionError (test_fields.py); the package inverts "
        "nonzero pivots only",
        ['raise ZeroDivisionError("inverse of zero")']),
    "fields.RationalField.__hash__": (
        "a field defines __eq__, so it defines __hash__ to stay hashable",
        ['return hash("rational")']),
    "fields.RationalField.add": (
        "the field interface's addition, which the reference oracles in tests/ call; the "
        "package adds the stored integers directly",
        ["return a + b"]),
    "fields.RationalField.inv": (
        "inverse of zero, a ZeroDivisionError (test_fields.py); the package inverts "
        "nonzero pivots only",
        ['raise ZeroDivisionError("inverse of zero")']),
    "fields.RationalField.read_point": (
        "a point value that is neither int nor Fraction, read as normalize reads it "
        "(test_evaluate.py); commands pass ints and Fractions",
        ["x = Fraction(x)"]),
    "instances.encode_3cnf": (
        "a library-entry guard: parse_dimacs refuses a clause without 3 literals first",
        ['raise ParseError(f"clause {idx} must have exactly 3 literals")']),
    "ips.canonical_geometric_refutation": (
        "InvariantError: the generator's constant term is beta - f(alpha)",
        ['raise InvariantError("h(0) differs from beta - f(alpha)")']),
    "ips.verify_full_ips": (
        _IPS_GUARD,
        ['raise InputError("refutation kind must be full")',
         "raise SupportOverflowError("]),
    "ips.verify_geometric": (
        _IPS_GUARD,
        ['raise InputError("refutation kind must be geometric")',
         "raise SupportOverflowError("]),
    "linalg.PolyMatrix.__post_init__": (
        "library-entry guards: the package builds rectangular matrices over one field",
        ['raise InputError("empty matrix")',
         'raise InputError("ragged matrix")',
         'raise InputError("entries must share one field")']),
    "linalg._minors": (
        "library-entry guards of determinant: sylvester builds square matrices and "
        "refuses the large ones first",
        ['raise InputError("determinant of a non-square matrix")',
         'raise MatrixTooLargeError(f"size {matrix.rows} exceeds guard {limit}")']),
    "pit.generator_pit": (
        "a library-entry guard: the pit command's --mode takes the three modes only",
        ['raise InputError(f"unknown --mode {config.quote(mode)}")']),
    "poly.Monomial.of": (
        "a library-entry guard: the package builds nonnegative ids and exponents",
        ['raise InputError(f"bad exponent entry ({v}, {e})")']),
    "poly.Namespace.name": (
        "InvariantError: a writer names ids inside its namespace",
        ['raise InvariantError(f"variable id {var} outside namespace")']),
    "poly.Polynomial.__eq__": (
        "polynomial equality, which the tests use; no command compares two polynomials",
        ["if not isinstance(other, Polynomial):",
         "return NotImplemented",
         "return (self.field == other.field and self._den == other._den"]),
    "poly.Polynomial.__repr__": (
        "the debugging text that pytest prints on a failed assert",
        ["try:",
         'return f"Polynomial({format_polynomial(self)})"',
         "degree = config.int_text(self.degree())",
         'return f"Polynomial(<terms: {len(self._terms)}, degree: {degree}>)"']),
    "poly.Polynomial.compose": (
        "a library-entry guard: the package's callers substitute for the whole support",
        ['raise MissingAssignmentError(f"no substitution for variable id {v}")']),
    "poly.Polynomial.evaluate": (
        "a library-entry guard: the package's callers pass a point covering the support",
        ["v = next(v for v in ids if v >= len(point))",
         'raise MissingAssignmentError(f"no value for variable id {v}") from None']),
    "poly.Polynomial.iter_terms": (
        "unsorted terms over F_p, which only extract_hard_multiple reads",
        ["return iter(self._terms.items())"]),
    "poly.Polynomial.substitute": (
        "partial substitution, which decompose, extract_hard_multiple and the reference "
        "Full IPS check in tests/ call",
        ["subst = dict(partial)",
         "for v in self.variables():",
         "if v not in subst:",
         "subst[v] = Polynomial.variable(self.field, v)",
         "return self.compose(subst)"]),
}


def _unrun(stdout: str) -> Counter:
    """The (qualname, stripped text) of each line that reach.py prints."""
    out, qualname = Counter(), None
    for line in stdout.splitlines()[:-1]:
        if line.startswith("    "):
            out[qualname, line.split(": ", 1)[1]] += 1
        else:
            qualname = line
    return out


@pytest.fixture(scope="module")
def unrun() -> dict[str, Counter]:
    """Hash seed -> the unrun lines, for seed 0 and a random seed."""
    env = dict(os.environ, PYTHONPATH=str(Path(annforge.__file__).parents[1]))
    seeds = ["0", str(random.randrange(1, 2**32))]
    procs = [subprocess.Popen([sys.executable, str(REACH)], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              env=dict(env, PYTHONHASHSEED=seed)) for seed in seeds]
    runs = {}
    for seed, proc in zip(seeds, procs):
        out, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
        runs[seed] = _unrun(out)
    return runs


def allowed() -> Counter:
    return Counter((qualname, text) for qualname, (_, texts) in ALLOWED.items()
                   for text in texts)


def test_every_unrun_line_is_allowed(unrun):
    # A new unrun line gets a transcript call, goes, or is listed with its reason.
    assert unrun["0"] - allowed() == Counter()


def test_allowed_lines_still_do_not_run(unrun):
    # An entry that a call now reaches, or whose line was deleted, goes.
    assert allowed() - unrun["0"] == Counter()
    assert all(reason and texts for reason, texts in ALLOWED.values())


def test_unrun_lines_do_not_depend_on_the_hash_seed(unrun):
    first, second = unrun.values()
    assert first == second

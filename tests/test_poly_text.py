"""Polynomial text: the reader and the writer on the stored integers against
the former Fraction-based reader and writer (``poly_text_reference.py``), and
fuzzed text through every CLI command that reads it.

The reader must give an equal polynomial or raise the same exception class
with the same message as the reference, on token soup and on mutated
canonical texts, over QQ, GF(7) and GF(2^61-1).  The writer must give the
reference's bytes, or its refusal.  On the CLI a fuzzed text must end in exit
0, 1, 2 or 3 without a traceback, and in exit 1 only on a no, Fooled or
Reject verdict.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from annforge import canonical_geometric_refutation, local_encode, parse_circuit, system_of
from annforge.cli import main
from annforge.errors import InputError, ParseError
from annforge.fields import QQ, PrimeField
from annforge.poly import Monomial, Namespace, Polynomial, format_polynomial, parse_polynomial
from annforge.serialize import dumps, encoding_to_json, refutation_to_json, system_to_json

from poly_text_reference import reference_format_polynomial, reference_parse_polynomial

FIELDS = [QQ, PrimeField(7), PrimeField(2**61 - 1)]
NS = Namespace(["x1", "x2", "y", "z_1", "ab"])
FIXTURES = Path(__file__).parent / "fixtures"

# Names in and out of NS, constants (a zero denominator, a multiple of 7, a
# non-ASCII digit), every operator, whitespace and characters outside the
# grammar.
TOKENS = ["x1", "x2", "y", "z_1", "ab", "q", "x", "x1x2", "0", "1", "2", "7", "10",
          "3/4", "1/7", "1/0", "٣", "^", "^2", "^0", "*", "+", "-", "/",
          " ", "\t", "\n", ".", "(", "_"]


def token_soup(names: list[str]):
    return st.lists(st.sampled_from(names + TOKENS), max_size=10).map("".join)


def canonical_texts(names: list[str]):
    """Canonical text of a small polynomial over ``names`` (QQ coefficients,
    degree at most 2 in each of at most two variables)."""
    ns = Namespace(names)
    monomials = [Monomial.of({u: a, v: b}) for u in range(len(names))
                 for v in range(u, len(names)) for a in range(3) for b in range(3)]
    term = st.tuples(st.integers(-9, 9), st.integers(1, 5), st.sampled_from(monomials))
    return st.lists(term, max_size=4).map(lambda ts: format_polynomial(
        Polynomial(QQ, {m: Fraction(a, b) for a, b, m in ts}), ns))


@st.composite
def mutated(draw, names: list[str]):
    """A canonical text after up to three edits, each deleting a character,
    replacing it by a name or token, or inserting one."""
    text = draw(canonical_texts(names))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["delete", "replace", "insert"]))
        piece = draw(st.sampled_from(names + TOKENS))
        if edit == "delete":
            text = text[:i] + text[i + 1:]
        elif edit == "replace":
            text = text[:i] + piece + text[i + 1:]
        else:
            text = text[:i] + piece + text[i:]
    return text


def texts(names: list[str]):
    return st.one_of(token_soup(names), mutated(names))


def outcome(function, *args):
    """The result, or the class and message of the exception raised."""
    try:
        return function(*args)
    except Exception as exc:  # the class and message are the outcome
        return type(exc), str(exc)


# -- the reader against the former one -----------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=300, deadline=None)
@given(text=texts(NS.names))
@example(text="x1 +")
@example(text="- -x1*x1^2 + 3/4*ab^0")
@example(text="x1^2/3")
@example(text="٣*x1^٣")
@example(text="y^٣")
@example(text=" \t\n")
@example(text="x1^0")
@example(text="x1 - x1 + 2*y - 2*y")
@example(text="3/4*x1 - 6/8*x1")
@example(text="1/2*x1 + 1/3*x2 - 5/6*y + 7/4")
@example(text="1" * 4301 + "*x1")
@example(text="1/7*x1")
@example(text="x1 + 1/0*q")
def test_parse_matches_reference(field, text):
    assert outcome(parse_polynomial, text, field, NS) \
        == outcome(reference_parse_polynomial, text, field, NS)


def test_syntax_errors_name_where_reading_stopped():
    for text, pos in [("x1 + 3z1", 6), ("x1 +", 3), ("* x1", 0), ("x1^", 2),
                      ("x1 ^ x2", 3), ("1..2", 1), ("x1 x2", 3), ("2 3", 2)]:
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, QQ, NS)
        assert str(info.value) == f"syntax error at position {pos} in {text!r}"


def test_unchanged_messages():
    for text, message in [("x1 + q", "unknown variable 'q'"),
                          ("x1 + 1/0", "invalid field constant '1/0'"),
                          (" ", "empty polynomial text")]:
        with pytest.raises(ParseError, match=message):
            parse_polynomial(text, QQ, NS)
    with pytest.raises(ParseError, match="invalid field constant '1/7'"):
        parse_polynomial("1/7*x1", PrimeField(7), NS)


# -- the writer against the former one ------------------------------------------


@st.composite
def polynomials(draw):
    field = draw(st.sampled_from(FIELDS))
    term = st.tuples(st.integers(-(2**62), 2**62), st.integers(1, 9),
                     st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=4))
    return Polynomial(field, {Monomial.of(dict(e)): Fraction(a, b) if field is QQ else a
                              for a, b, e in draw(st.lists(term, max_size=6))})


@settings(max_examples=200, deadline=None)
@given(polynomials())
@example(Polynomial(QQ, {Monomial.of({0: 2, 5: 1}): 1, Monomial.of({1: 3}): 2}))
@example(Polynomial(PrimeField(7), {Monomial.of({0: 2, 1: 2}): 3, Monomial.of({0: 2}): 6}))
def test_format_matches_reference(p):
    for ns in (NS, None):
        assert outcome(format_polynomial, p, ns) == outcome(reference_format_polynomial, p, ns)


def test_format_refusals_match_reference():
    # Built here: each polynomial holds a number past the digit limit.
    x1, one = Monomial.of({0: 1}), Monomial()
    for terms in ({x1: 10**4301, one: Fraction(1, 3)}, {x1: Fraction(1, 10**4301)},
                  {Monomial.of({0: 10**4301}): 1, one: 10**4301}):
        p = Polynomial(QQ, terms)
        for ns in (NS, None):
            assert outcome(format_polynomial, p, ns) == outcome(reference_format_polynomial, p, ns)
        assert outcome(format_polynomial, p, NS)[0] is InputError


def test_fixture_texts_read_and_write_back_byte_identically():
    cert = json.loads((FIXTURES / "squares_diff_cert.json").read_text())
    zs = Namespace.outputs(len(cert["encoding"]["outputs"]))
    seeds = Namespace(cert["encoding"]["seed_names"])
    pairs = [(t, zs) for t in [cert["h"], *cert["gate_lifts"]]]
    pairs += [(t, seeds) for t in cert["encoding"]["outputs"]]
    for text, ns in pairs:
        p = parse_polynomial(text, QQ, ns)
        assert p == reference_parse_polynomial(text, QQ, ns)
        assert format_polynomial(p, ns) == reference_format_polynomial(p, ns) == text


# -- fuzzed text through the CLI -------------------------------------------------


def _inputs() -> dict[str, str]:
    enc = local_encode(parse_circuit((FIXTURES / "squares_diff.txt").read_text()), [1, 2], 0)
    system = system_of(enc.map)
    return {
        "enc.json": dumps(encoding_to_json(enc)),
        "sys.json": dumps(system_to_json(system)),
        "r.json": dumps(refutation_to_json(canonical_geometric_refutation(enc), system)),
    }


INPUTS = _inputs()
OUT_NAMES = Namespace.outputs(len(json.loads(INPUTS["enc.json"])["outputs"])).names
SEED_NAMES = json.loads(INPUTS["sys.json"])["var_names"]
#: command -> (the names its text is over, the stdout of its exit-1 verdict)
COMMANDS = {
    "verify": (OUT_NAMES, "annihilates: no"),
    "hit": (OUT_NAMES, "result: fooled"),
    "resultant-f": (["x", "y"], None),
    "resultant-g": (["x", "y"], None),
    "ips-verify-r": (OUT_NAMES, "Reject"),
    "ips-verify-equation": (SEED_NAMES, "Reject"),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("poly_text")
    for name, text in INPUTS.items():
        (root / name).write_text(text)
    return root


def argv_for(root: Path, command: str, text: str) -> list[str]:
    """The command line that reads ``text`` where ``command`` reads a polynomial."""
    if command in ("verify", "hit"):
        (root / "p.txt").write_text(text)
        flag = "--encoding" if command == "verify" else "--map"
        return [command, flag, str(root / "enc.json"), "--poly", str(root / "p.txt")]
    if command.startswith("resultant"):
        f, g = (text, "x*y - 2 + x^2") if command == "resultant-f" else ("x*y - 2 + x^2", text)
        return ["resultant", f"--f={f}", f"--g={g}", "--var=x"]
    name = "r.json" if command == "ips-verify-r" else "sys.json"
    obj = json.loads(INPUTS[name])
    if name == "r.json":
        obj["r"] = text
    else:
        obj["equations"][0] = text
    (root / f"fuzzed_{name}").write_text(json.dumps(obj))
    files = {n: str(root / n) for n in INPUTS} | {name: str(root / f"fuzzed_{name}")}
    return ["ips-verify", "--system", files["sys.json"], "--refutation", files["r.json"]]


def tail_degree(text: str) -> int:
    """The degree in z7 of a text over z1..z7, 0 if it does not parse."""
    try:
        return parse_polynomial(text, QQ, Namespace(OUT_NAMES)).degree_in(len(OUT_NAMES) - 1)
    except ParseError:
        return 0


@st.composite
def cli_cases(draw):
    """A command and a text for it.  Texts of degree above 4 in z7 are left
    out: the triangular check replaces z7 by a lift, whose powers grow fast
    below AF_TERM_BUDGET (z7^12 takes seconds; ROADMAP item 5).  Degrees
    past the budget are in the explicit examples."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    text = draw(texts(list(COMMANDS[command][0])))
    assume(COMMANDS[command][0] is not OUT_NAMES or tail_degree(text) <= 4)
    return command, text


@settings(max_examples=200, deadline=None)
@given(cli_cases())
@example(("verify", "z1^100000000"))
@example(("hit", "z7 - z7"))
@example(("hit", "z7^100000000"))
@example(("resultant-f", "x^99 + 1"))
@example(("resultant-g", "--"))
@example(("ips-verify-r", "z1 +"))
@example(("ips-verify-equation", "x1 - 1/0"))
def test_fuzzed_text_exits_with_a_defined_code(workdir, case):
    command, text = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv_for(workdir, command, text))
    assert code in (0, 1, 2, 3), (case, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert COMMANDS[command][1] is not None and COMMANDS[command][1] in out.getvalue(), case

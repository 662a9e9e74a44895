"""Differential tests: ``parse_circuit`` and ``random_circuit``, which build
through ``CircuitBuilder``, against the versions kept in
``circuit_reference``, over QQ and GF(7).  Random and mutated DSL texts must
give equal circuits, or the same error type with the same message; the one
difference is that ``parse_circuit`` checks gate names (see
``expected_parse``)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from annforge.circuit import parse_circuit, random_circuit
from annforge.errors import AnnforgeError, CircuitError, ParseError
from annforge.fields import QQ, PrimeField

from circuit_reference import _IDENT_RE, reference_parse_circuit, reference_random_circuit

FIELDS = [QQ, PrimeField(7)]
INPUT_NAMES = ["x1", "x2", "a", "b_2", "g1"]
LITERALS = ["0", "1", "-1", "2", "7", "-0", "1/2", "3/7", "2/4", "1/0", "x"]
TOKENS = INPUT_NAMES + LITERALS + [
    "g2", "g3", "g9", "add", "mul", "pow", "=", "circuit", "inputs", "output", "#", "1bad",
]


def outcome(fn, *args):
    """The circuit, or the error's type and text."""
    try:
        return fn(*args)
    except AnnforgeError as exc:
        return type(exc), str(exc)


def expected_random(*args):
    """The former generator's outcome, except that with no input and no
    constant to start from it let the builtin ValueError of randrange out,
    where the package raises a CircuitError."""
    try:
        return outcome(reference_random_circuit, *args)
    except ValueError:
        return CircuitError, "a random circuit needs an input or a constant to start from"


def expected_parse(text: str, field):
    """The former parser's outcome, except that a gate line with a name
    other than an identifier is a ParseError at that line, unless an
    earlier line already fails."""
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split("#", 1)[0].split()
        if len(parts) == 5 and parts[1] == "=" and parts[2] in ("add", "mul") \
                and not _IDENT_RE.fullmatch(parts[0]):
            before = outcome(reference_parse_circuit, "\n".join(lines[:lineno - 1]), field)
            if isinstance(before, tuple) and before[1].startswith("line "):
                return before
            return ParseError, f"line {lineno}: bad gate name {parts[0]!r}"
    return outcome(reference_parse_circuit, text, field)


@st.composite
def valid_lines(draw):
    """A well-formed DSL text as lines: gates read inputs, literals and
    earlier gates, and the output is the last gate (or a bare reference)."""
    inputs = draw(st.lists(st.sampled_from(INPUT_NAMES[:4]), max_size=3, unique=True))
    refs = list(inputs)
    lines = [f"circuit {draw(st.sampled_from(['t', 'c_1', 'x1']))}", " ".join(["inputs", *inputs])]
    size = draw(st.integers(0, 5))
    for k in range(1, size + 1):
        op = draw(st.sampled_from(["add", "mul"]))
        left, right = (draw(st.sampled_from(refs + LITERALS[:7])) for _ in range(2))
        lines.append(f"g{k} = {op} {left} {right}")
        refs.append(f"g{k}")
    out = refs[-1] if size else draw(st.sampled_from(refs or ["x1"]))
    lines.append(f"output {out}")
    return lines


@st.composite
def mutated_text(draw):
    """A well-formed text with up to three line or token mutations."""
    lines = draw(valid_lines())
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["drop", "copy", "swap", "token", "insert", "comment"]))
        i = draw(st.integers(0, len(lines)))
        if kind == "insert" or not lines:
            words = draw(st.lists(st.sampled_from(TOKENS), max_size=6))
            lines.insert(i, " ".join(words))
            continue
        i = min(i, len(lines) - 1)
        if kind == "drop":
            del lines[i]
        elif kind == "copy":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "token":
            words = lines[i].split() or [""]
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(words)
        else:
            lines[i] += "  # " + draw(st.sampled_from(TOKENS))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n  \n"]))


@settings(max_examples=400, deadline=None)
@given(field=st.sampled_from(FIELDS), text=mutated_text())
def test_parse_circuit_matches_reference(field, text):
    assert outcome(parse_circuit, text, field) == expected_parse(text, field)


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(FIELDS),
       lines=st.lists(st.lists(st.sampled_from(TOKENS), max_size=5), max_size=6))
def test_parse_circuit_matches_reference_on_token_soup(field, lines):
    text = "\n".join(" ".join(words) for words in lines)
    assert outcome(parse_circuit, text, field) == expected_parse(text, field)


@st.composite
def distinct_pool(draw, field):
    """Pool constants that stay distinct once normalized into ``field``."""
    values = draw(st.lists(st.sampled_from([0, 1, -1, 2, 3, 5]), max_size=3))
    pool, seen = [], set()
    for v in values:
        if field.normalize(v) not in seen:
            seen.add(field.normalize(v))
            pool.append(v)
    return tuple(pool)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), field=st.sampled_from(FIELDS), n_inputs=st.integers(0, 4),
       size=st.integers(0, 8), seed=st.integers(0, 10**6))
def test_random_circuit_matches_reference(data, field, n_inputs, size, seed):
    pool = data.draw(distinct_pool(field))
    args = (n_inputs, size, seed, pool, field)
    assert outcome(random_circuit, *args) == expected_random(*args)


def test_random_circuit_repeated_pool_value_shares_a_gate():
    # CircuitBuilder.const gives one gate per value; the reference gave two.
    circuit = random_circuit(1, 3, seed=5, const_pool=(1, 1, 3))
    consts = [g.value for g in circuit.gates if g.op == "const"]
    assert consts == [1, 3]
    assert len(reference_random_circuit(1, 3, seed=5, const_pool=(1, 1, 3)).gates) == 7

"""One number grammar: ``config.read_int`` reads ASCII ``[+-]?[0-9]+``, with
ASCII whitespace around it, up to the digit limit, and ``config.quote``
repeats input in a refusal.

``Field.parse_value`` is checked against the former reader
(``number_reference.py``): the same value or the same exception class on
every constant ``a`` or ``a/b`` in the grammar, parts of up to 4,300 digits
included, over QQ, GF(7) and GF(2^61-1); and a ParseError on the texts that
``int()`` read but the grammar leaves out.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from annforge import config
from annforge.errors import InputError, ParseError
from annforge.fields import QQ, PrimeField

from number_reference import reference_parse_value

FIELDS = [QQ, PrimeField(7), PrimeField(2**61 - 1)]
LIMIT = sys.get_int_max_str_digits()
#: Non-ASCII decimal digits that int() reads: Arabic-Indic, Devanagari, fullwidth.
FOREIGN_ZEROS = [0x660, 0x966, 0xFF10]

digits = st.one_of(st.text("0123456789", min_size=1, max_size=30),
                   st.integers(10 ** (LIMIT - 1), 10**LIMIT - 1).map(str))
integers = st.tuples(st.sampled_from(["", "+", "-"]), digits).map("".join)
padding = st.text(" \t\n", max_size=2)


@st.composite
def constants(draw):
    """``a`` or ``a/b`` in the grammar, with ASCII whitespace around it."""
    text = draw(integers)
    if draw(st.booleans()):
        text += "/" + draw(digits)
    return draw(padding) + text + draw(padding)


def outcome(parse, field, text):
    try:
        return parse(field, text)
    except Exception as exc:  # the class is the outcome
        return type(exc)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=200, deadline=None)
@given(text=constants())
@example(text="0/5")
@example(text="-007/014")
@example(text="3/7")
@example(text="1/0")
@example(text=" +4300 ")
def test_parse_value_matches_reference_in_the_grammar(field, text):
    assert outcome(type(field).parse_value, field, text) == \
        outcome(reference_parse_value, field, text)


@st.composite
def outside_the_grammar(draw):
    """A constant that int() read: with an underscore between two digits, a
    non-ASCII digit, or a negative denominator."""
    num = draw(st.text("0123456789", min_size=2, max_size=12))
    kind = draw(st.sampled_from(["underscore", "foreign", "negative"]))
    if kind == "underscore":
        i = draw(st.integers(1, len(num) - 1))
        return num[:i] + "_" + num[i:]
    if kind == "foreign":
        i = draw(st.integers(0, len(num) - 1))
        zero = draw(st.sampled_from(FOREIGN_ZEROS))
        return num[:i] + chr(zero + int(num[i])) + num[i + 1:]
    return f"{num}/-{draw(st.integers(1, 10**6))}"


@settings(max_examples=200, deadline=None)
@given(text=outside_the_grammar())
@example(text="1_0")
@example(text="٣")
@example(text="1/-2")
def test_parse_value_refuses_what_int_read_outside_the_grammar(text):
    reference_parse_value(QQ, text)  # the former reader took it
    for field in FIELDS:
        with pytest.raises(ParseError, match="^invalid field constant "):
            field.parse_value(text)


def test_read_int_reads_ascii_decimal_only():
    assert config.read_int("-0042", "n") == -42
    assert config.read_int(" +7\n", "n") == 7
    for text in ["", " ", "1_0", "٣", "\xa01", "1 2", "1.0", "0x10", "--1", "- 1"]:
        assert config.read_int(text, "n") is None, text
    with pytest.raises(InputError, match="^n has more than 4300 digits$"):
        config.read_int("1" * (LIMIT + 1), "n", InputError)


def test_a_constant_past_the_digit_limit_names_the_limit():
    with pytest.raises(ParseError, match="^a field constant has more than 4300 digits$"):
        QQ.parse_value("1/" + "1" * (LIMIT + 1))


def test_quote_cuts_a_long_input_and_gives_its_length():
    assert config.quote("x" * 58) == "'" + "x" * 58 + "'"
    assert config.quote("x" * 59) == "'" + "x" * 59 + "... (61 characters)"
    assert config.quote("NaN", str) == "NaN"
    assert config.quote({"a": 1}) == "{'a': 1}"

"""The digit-limit rule in config: messages show any integer, while reports,
files and readers refuse one past CPython's 4300-digit int/str limit."""

from fractions import Fraction

import pytest

from annforge import config
from annforge.errors import BudgetExceededError, InputError, ParseError

HUGE = 2**14300  # 4305 decimal digits


def test_int_text_shows_a_number_past_the_limit_by_its_bits():
    assert config.int_text(12) == "12"
    assert config.int_text(HUGE) == "(a 14301-bit integer)"


def test_int_text_cuts_a_long_number_as_quote_does():
    ones = int("1" * 4300)
    assert config.int_text(ones) == "1" * config.QUOTE_LIMIT + "... (4300 characters)"
    assert config.int_text(-(10**58)) == "-1" + "0" * 58  # 60 characters, the limit


def test_exact_text_and_read_int_refuse_past_the_limit():
    assert config.exact_text(Fraction(3, 4), "the bound") == "3/4"
    with pytest.raises(InputError, match="^the bound has more than 4300 digits$"):
        config.exact_text(Fraction(1, HUGE), "the bound")
    assert config.read_int("-" + "9" * 4300, "an exponent") == -(10**4300 - 1)
    with pytest.raises(ParseError, match="^an exponent has more than 4300 digits$"):
        config.read_int("9" * 4301, "an exponent")


def test_budget_messages_show_sizes_past_the_limit(monkeypatch):
    monkeypatch.setenv("AF_TERM_BUDGET", "10")
    config.check_degree("degree", 9)
    with pytest.raises(BudgetExceededError,
                       match=r"^degree \(a 14301-bit integer\) exceeds budget 10$"):
        config.check_degree("degree", HUGE)
    with pytest.raises(BudgetExceededError,
                       match=r"^pad: a map with seed length 1 and \(a 14301-bit integer\) "
                             r"outputs exceeds budget 10$"):
        config.check_map_size("pad", 1, HUGE)

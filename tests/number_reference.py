"""Field constants as the package read them with Python's ``int()``, kept as
the reference oracle.

``reference_parse_value`` is the earlier ``Field.parse_value``, unchanged but
for its name and for taking the field as an argument.  ``int()`` also reads
``1_0``, non-ASCII digits, whitespace around a digit and a signed
denominator, all outside the grammar that ``config.read_int`` reads.  The
differential test in ``test_numbers.py`` requires the package to give the
same outcome on every constant in the grammar and to refuse those others.
"""

from __future__ import annotations

from fractions import Fraction

from annforge.errors import ParseError
from annforge.fields import Field, FieldValue


def reference_parse_value(field: Field, text: str) -> FieldValue:
    """Parse ``a`` or ``a/b`` with integer a, b."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return field.normalize(Fraction(int(num), int(den)))
        return field.normalize(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"invalid field constant {text!r}") from exc

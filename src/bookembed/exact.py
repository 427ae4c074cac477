"""Exact rational helpers: parsing, formatting, and the +infinity top
element."""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction


# Top element of the rational order: ints and Fractions compare exactly
# with it, so "undefined" residuals and lowest-edge weights need no
# sentinel number.
INF = math.inf


def parse_rational(text: str) -> Fraction:
    """Parse ``"5"``, ``"3.25"`` or ``"7/2"`` into an exact Fraction;
    anything else, a non-string included, raises ValueError.  ASCII
    ``digits`` and ``digits/digits`` skip the ``Fraction(str)`` regex.
    Interior whitespace and ``_``, which ``Fraction(str)`` accepts from some
    Python version on, are rejected on every version."""
    try:
        stripped = text.strip()
        p, slash, q = stripped.partition("/")
        if stripped.isascii() and p.isdigit() and (not slash or q.isdigit()):
            return Fraction(int(p), int(q)) if slash else Fraction(int(p))
        if "_" in stripped or len(stripped.split()) > 1:
            raise ValueError(text)
        return Fraction(stripped)
    except (AttributeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Canonical string form: ``"5"`` for integers, ``"p/q"`` otherwise.
    ``Decimal`` writes the numbers past Python's int-to-str digit limit."""
    try:
        return str(value)
    except ValueError:
        p, q = Decimal(value.numerator), Decimal(value.denominator)
        return f"{p}/{q}" if q != 1 else str(p)

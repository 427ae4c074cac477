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


def parse_ratio(text: str) -> tuple:
    """Parse ``"5"``, ``"3.25"`` or ``"7/2"`` into ``(p, q)``, the number
    ``p/q`` in lowest terms with ``q > 0``; anything else, a non-string
    included, raises ValueError.  ASCII ``digits`` and ``digits/digits``
    skip the ``Fraction(str)`` regex.  Interior whitespace and ``_``, which
    ``Fraction(str)`` accepts from some Python version on, are rejected on
    every version."""
    try:
        p, slash, q = text.partition("/")
        if p.isdigit() and (not slash or q.isdigit()) and text.isascii():
            if not slash:
                return int(p), 1
            p, q = int(p), int(q)
            if not q:
                raise ZeroDivisionError(text)
            g = math.gcd(p, q)
            return (p // g, q // g) if g != 1 else (p, q)
        stripped = text.strip()
        if "_" in stripped or len(stripped.split()) > 1:
            raise ValueError(text)
        value = Fraction(stripped)
        return value.numerator, value.denominator
    except (AttributeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def parse_rational(text: str) -> Fraction:
    """:func:`parse_ratio` as an exact Fraction."""
    return Fraction(*parse_ratio(text))


def format_ratio(p: int, q: int) -> str:
    """Canonical string of ``p/q`` in lowest terms with ``q > 0``: ``"5"``
    for integers, ``"p/q"`` otherwise.  ``Decimal`` writes the numbers past
    Python's int-to-str digit limit."""
    try:
        return f"{p}/{q}" if q != 1 else str(p)
    except ValueError:
        p, q = Decimal(p), Decimal(q)
        return f"{p}/{q}" if q != 1 else str(p)


def format_rational(value: Fraction) -> str:
    """:func:`format_ratio` of a Fraction."""
    return format_ratio(value.numerator, value.denominator)

"""Exact rational helpers: parsing, formatting, and the +infinity top
element."""

from __future__ import annotations

import json
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
    included, raises ValueError.  ASCII ``digits`` and ``digits/digits``,
    signed or not, skip the ``Fraction(str)`` regex and are read at any
    length.  Interior whitespace and ``_``, which ``Fraction(str)`` accepts
    from some Python version on, are rejected on every version."""
    try:
        p, slash, q = text.partition("/")
        if p.isdigit() and (not slash or q.isdigit()) and text.isascii():
            if not slash:
                return read_digits(p), 1
            p, q = read_digits(p), read_digits(q)
            if not q:
                raise ZeroDivisionError(text)
            g = math.gcd(p, q)
            return (p // g, q // g) if g != 1 else (p, q)
        if text[:1] in ("-", "+") and text[1:2].isdigit():
            p, q = parse_ratio(text[1:])
            return (-p if text[0] == "-" else p), q
        stripped = text.strip()
        if "_" in stripped or len(stripped.split()) > 1:
            raise ValueError(text)
        value = Fraction(stripped)
        return value.numerator, value.denominator
    except (AttributeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {excerpt(text)}") from exc


def read_digits(text: str) -> int:
    """The integer of the ASCII digit string ``text``, which may start with
    ``-``, at any length.  ``int`` reads it first; past Python's
    int-from-str digit limit the two halves are read apart and joined by a
    power of ten."""
    try:
        return int(text)
    except ValueError:
        if text[0] == "-":
            return -read_digits(text[1:])
        half = len(text) // 2
        low = len(text) - half
        return read_digits(text[:half]) * 10**low + read_digits(text[half:])


# json.loads builds a decoder on each call that passes parse_int; its own
# int reader stops at Python's digit limit
_DECODER = json.JSONDecoder(parse_int=read_digits)


def read_json(text: str):
    """``json.loads(text)`` with JSON integers read by :func:`read_digits`,
    at any length, through one shared decoder.  A leading byte order mark
    raises the ``JSONDecodeError`` that ``json.loads`` raises."""
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    return _DECODER.decode(text)


def excerpt(text, limit: int = 40, quote=repr) -> str:
    """``quote(text)`` for an error message; a longer string is cut to its
    first ``limit`` characters and its length.  An int is written as its
    digits, which ``repr`` cannot do past Python's digit limit."""
    if type(text) is int:
        text, quote = format_ratio(text, 1), str
    if isinstance(text, str) and len(text) > limit:
        return f"{quote(text[:limit])}... ({len(text)} characters)"
    return quote(text)


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

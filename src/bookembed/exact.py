"""Exact rational helpers: parsing, formatting, integer scaling, and the
+infinity top element."""

from __future__ import annotations

import math
from fractions import Fraction


class _Infinity:
    """Top element of the rational order.

    Compares strictly above every ``Fraction`` so that "undefined" residuals
    and lowest-edge weights never need a sentinel number.
    """

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is INF

    def __gt__(self, other):
        return other is not INF

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is INF

    def __hash__(self):
        return hash("bookembed-INF")

    def __repr__(self):
        return "INF"


INF = _Infinity()


def parse_rational(text: str) -> Fraction:
    """Parse ``"5"``, ``"3.25"`` or ``"7/2"`` into an exact Fraction;
    anything else, a non-string included, raises ValueError."""
    try:
        return Fraction(text.strip())
    except (AttributeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Canonical string form: ``"5"`` for integers, ``"p/q"`` otherwise."""
    return str(value)


def scaled_weights(weights):
    """Rationals as integers over their least common denominator (exact):
    ``(numerators, denominator)``."""
    weights = list(weights)
    den = 1
    for w in weights:
        den = den * w.denominator // math.gcd(den, w.denominator)
    return [w.numerator * (den // w.denominator) for w in weights], den

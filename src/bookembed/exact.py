"""Exact rational helpers: parsing, formatting, integer scaling, and the
+infinity top element."""

from __future__ import annotations

import math
from fractions import Fraction


# Top element of the rational order: ints and Fractions compare exactly
# with it, so "undefined" residuals and lowest-edge weights need no
# sentinel number.
INF = math.inf


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

"""Exact rationals, serialized as decimal-free "p/q" strings.

Every number the library certifies against is a ``fractions.Fraction``.
Floats are rejected everywhere: the definitions being checked use strict
inequalities, and a rounded value could flip a verdict.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import DomainError, ParseError

_INT_RE = re.compile(r"^-?\d+$")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" (q > 0) into an exact Fraction."""
    if not isinstance(text, str):
        raise ParseError(f"expected a rational string, got {type(text).__name__}")
    s = text.strip()
    if "/" in s:
        num_s, _, den_s = s.partition("/")
        num_s, den_s = num_s.strip(), den_s.strip()
        if not _INT_RE.match(num_s) or not _INT_RE.match(den_s):
            raise ParseError(f"malformed rational {text!r}")
        den = int(den_s)
        if den <= 0:
            raise ParseError(f"denominator must be positive in {text!r}")
        return Fraction(int(num_s), den)
    if not _INT_RE.match(s):
        raise ParseError(f"malformed rational {text!r} (decimals are not accepted)")
    return Fraction(int(s))


def format_rational(value) -> str:
    """Render a rational as "p" or "p/q"."""
    f = as_fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def as_fraction(value) -> Fraction:
    """Coerce ints and Fractions; refuse floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise DomainError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise DomainError(f"{value!r} is not an exact rational")


def smallest_int_gt(x) -> int:
    """Smallest integer strictly greater than x."""
    return math.floor(as_fraction(x)) + 1

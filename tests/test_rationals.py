from fractions import Fraction

import pytest

from fuzzycoarse import parse_rational, format_rational, as_fraction
from fuzzycoarse.errors import DomainError, ParseError
from fuzzycoarse.rationals import smallest_int_gt


def test_parse_simple():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-7/3") == Fraction(-7, 3)
    assert parse_rational(" 4/8 ") == Fraction(1, 2)


@pytest.mark.parametrize("bad", ["1.5", "", "a/b", "1/0", "1/-2", "1/2/3", "0.25", "½"])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


def test_format_roundtrip():
    for text in ["1/2", "-3/7", "5", "0"]:
        assert format_rational(parse_rational(text)) == text


def test_as_fraction_rejects_floats():
    with pytest.raises(DomainError):
        as_fraction(0.5)
    with pytest.raises(DomainError):
        as_fraction(True)


def test_integer_neighbors():
    assert smallest_int_gt(Fraction(5, 2)) == 3
    assert smallest_int_gt(Fraction(2)) == 3
    assert smallest_int_gt(Fraction(-5, 2)) == -2

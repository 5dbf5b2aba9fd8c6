from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperappell.rationals import approximate, parse_pair, parse_rational, read_rational

from oracles import double_factorial


def test_parse_integer_and_fraction():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("6/4") == Fraction(3, 2)


def test_parse_rejects_floats_and_junk():
    for bad in ("1.5", "0.25", "1e3", "", "1/2/3", "a/b", "--1", "nan"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_parse_rejects_zero_denominator():
    for text in ("1/0", "0/0", "-3/-0"):
        with pytest.raises(ZeroDivisionError):
            parse_rational(text)
        with pytest.raises(ZeroDivisionError):
            parse_pair(text)
        with pytest.raises(ValueError, match="^a expects an exact rational"):
            read_rational(text, "a", parse_pair)


@given(st.integers(), st.integers().filter(bool))
def test_parse_pair_is_the_fraction_in_lowest_terms(p, q):
    # the unreduced text of a hand-edited file, negative denominators included
    for text in (f"{p}/{q}", f" {p} / {q} ", str(p)):
        value = Fraction(p, q) if "/" in text else Fraction(p)
        assert parse_pair(text) == value.as_integer_ratio()
        assert read_rational(text, "a", parse_pair) == value.as_integer_ratio()
        assert parse_rational(text) == value
        assert (parse_rational(text).numerator, parse_rational(text).denominator) == parse_pair(text)


def test_parse_pair_rejects_what_parse_rational_rejects():
    for bad in ("1.5", "0.25", "1e3", "", "1/2/3", "a/b", "--1", "nan", "1/", "/2"):
        with pytest.raises(ValueError):
            parse_pair(bad)
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_format_reduced():
    # the wire format is str(Fraction)
    assert str(Fraction(3, 4)) == "3/4"
    assert str(Fraction(8, 4)) == "2"
    assert str(Fraction(-1, 2)) == "-1/2"
    assert str(Fraction(0)) == "0"


@given(st.integers(), st.integers().filter(bool))
def test_parse_format_round_trip(p, q):
    value = Fraction(p, q)
    assert parse_rational(str(value)) == value


def test_double_factorial_small_values():
    # (-1)!! = 0!! = 1 by convention; then 1, 2, 3, 8, 15, 48, 105
    assert [double_factorial(k) for k in range(-1, 8)] == [1, 1, 1, 2, 3, 8, 15, 48, 105]


def test_double_factorial_splits_factorial():
    for k in range(2, 14):
        assert double_factorial(k) * double_factorial(k - 1) == factorial(k)


def test_double_factorial_rejects_below_minus_one():
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_approximate_refuses_values_beyond_float_range():
    assert approximate(Fraction(-3, 4), "--float") == -0.75
    assert approximate(Fraction(10**400 + 1, 10**400), "--float") == 1.0
    assert approximate(Fraction(1, 10**400), "--float") == 0.0
    for value in (Fraction(10**400), Fraction(-(10**310), 7)):
        with pytest.raises(ValueError, match="^--float "):
            approximate(value, "--float")

import json
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperappell.jsonwriter import write_json
from hyperappell.rationals import approximate, parse_rational

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
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


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


class Lazy(list):
    """An array the writer gets as a one-shot generator and json.dumps as this list."""


def as_generators(value):
    """`value` with every Lazy list turned into a generator of its items."""
    if isinstance(value, Lazy):
        return (as_generators(item) for item in value)
    if isinstance(value, (list, tuple)):
        return type(value)(map(as_generators, value))
    if isinstance(value, dict):
        return {key: as_generators(item) for key, item in value.items()}
    return value


def written(payload) -> str:
    pieces = []
    write_json(payload, pieces.append)
    return "".join(pieces)


# What json encodes: scalars, lists, tuples (written as lists) and string-keyed objects,
# plus arrays that reach the writer as generators.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.lists(inner).map(Lazy)
    | st.lists(st.text()).map(tuple)
    | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
@example(
    {
        'quote " and backslash \\': ["\x00\x1f\x7f\n\t", "\u00e9 \u4e2d \U0001f600", "\ud800"],
        "numbers": [0, -7, 10**400, -(10**400), -0.0, 1e300, -1e-300, 0.1, 1.5],
        "non-finite": [float("nan"), float("inf"), float("-inf")],
        "flags": [True, False, None],
        "empty": [[], {}, (), "", Lazy()],
        "nested": [[[{"b": [1, "x"], "a": {}}]], {"z": [], "y": [[]]}],
        "lazy": Lazy([Lazy(["a", "b"]), Lazy([1, {"c": Lazy()}]), ("d",)]),
        "lazy-empty": Lazy(),
    }
)
@example(Lazy([Lazy([1, 2]), {"a": Lazy(["x"])}, "y"]))
@example({})
def test_dump_json_is_json_dumps(value):
    assert written(as_generators(value)) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_write_json_hands_over_each_top_level_item_before_drawing_the_next():
    drawn, pieces = [], []

    def rows():
        for k in range(5):
            drawn.append(k)
            yield {"k": k, "values": [str(v) for v in range(k)]}

    def write(piece):
        pieces.append((piece, len(drawn)))

    write_json({"m": 4, "rows": rows(), "tail": ["x", "y"]}, write)
    item_pieces = [(piece, count) for piece, count in pieces if '"k": ' in piece]
    # one piece per item, written after item k is drawn and before item k + 1 is
    assert [count for _, count in item_pieces] == [1, 2, 3, 4, 5]
    assert all(piece.count('"k": ') == 1 for piece, _ in item_pieces)
    assert all(f'"k": {k},' in piece for k, (piece, _) in enumerate(item_pieces))
    expected = {"m": 4, "rows": [{"k": k, "values": [str(v) for v in range(k)]} for k in range(5)],
                "tail": ["x", "y"]}
    assert "".join(p for p, _ in pieces) == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_write_json_joins_a_nested_generator_into_its_item_piece():
    # only the items of a top-level array stream: an iterable inside an item, a generator too, is
    # drawn whole into that item's piece, which is written before the next item is drawn
    drawn, pieces = [], []

    def terms(k):
        for j in range(k):
            drawn.append((k, j))
            yield {"i": k - j, "j": j, "a": f"{k}/{j + 1}"}

    def members():
        for k in range(4):
            yield {"k": k, "terms": terms(k)}

    def write(piece):
        pieces.append((piece, len(drawn)))

    write_json({"m": 3, "polys": members(), "coeffs": ["1", "1/2"]}, write)
    member_pieces = [(piece, count) for piece, count in pieces if '"k": ' in piece]
    # one piece per member, holding all k of its terms, written once they are all drawn
    assert [count for _, count in member_pieces] == [0, 1, 3, 6]
    assert [(piece.count('"k": '), piece.count('"j": ')) for piece, _ in member_pieces] == [
        (1, k) for k in range(4)
    ]
    expected = {
        "m": 3,
        "polys": [
            {"k": k, "terms": [{"i": k - j, "j": j, "a": f"{k}/{j + 1}"} for j in range(k)]}
            for k in range(4)
        ],
        "coeffs": ["1", "1/2"],
    }
    assert "".join(p for p, _ in pieces) == json.dumps(expected, sort_keys=True, indent=2) + "\n"

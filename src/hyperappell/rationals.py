"""Exact rational scalars.

Every coefficient in this package is an arbitrary-precision rational, so
"equals zero" is decidable and certification never depends on a floating
point tolerance.  Values are :class:`fractions.Fraction`, which already
stores them in lowest terms with a positive denominator and serializes as
``"p/q"`` (or ``"p"`` when the denominator is 1), the wire format used by
all JSON and CSV output.  A value drawn as an integer pair (num, den) in
lowest terms, den > 0, has the same text, `ratio_text`, is read from it by
`parse_pair`, and becomes a Fraction through the public constructor
Fraction(num, den).  `ratio_float` gives the optional decimal renderings next
to the exact values.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` with integer p, q.

    Decimal or exponent notation is rejected: inputs are exact by contract.
    """
    return Fraction(*parse_pair(text))


def parse_pair(text: str) -> tuple[int, int]:
    """`parse_rational` as the pair (num, den) in lowest terms, den > 0, made without a Fraction."""
    num, slash, den = text.strip().partition("/")
    num, den = int(num), int(den) if slash else 1
    if not den:
        raise ZeroDivisionError(f"{text!r} has a zero denominator")
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // g, den // g


def read_rational(value, name: str, parse=parse_rational):
    """`parse_rational`, or `parse` such as `parse_pair`, for input from outside the program.

    Every refusal, a zero denominator or a value that is not a string
    included, is a ValueError that names the field.
    """
    try:
        if isinstance(value, str):
            return parse(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"{name} expects an exact rational like 3 or -3/4, got {value!r}")


def ratio_text(num: int, den: int) -> str:
    """The text of num/den in lowest terms, den > 0, as str(Fraction(num, den)) gives it."""
    return f"{num}" if den == 1 else f"{num}/{den}"


def ratio_float(num: int, den: int) -> float:
    """num / den as a float, the division float(Fraction(num, den)) makes on CPython 3.10-3.13.

    A value beyond the double range is a ValueError that names --float, the
    option asking for the rendering, not an OverflowError.
    """
    try:
        return num / den
    except OverflowError:
        raise ValueError("--float cannot render a value beyond the range of a float") from None

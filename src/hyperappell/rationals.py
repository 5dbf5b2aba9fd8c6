"""Exact rational scalars.

Every coefficient in this package is an arbitrary-precision rational, so
"equals zero" is decidable and certification never depends on a floating
point tolerance.  Values are :class:`fractions.Fraction`, which already
stores them in lowest terms with a positive denominator and serializes as
``"p/q"`` (or ``"p"`` when the denominator is 1), the wire format used by
all JSON and CSV output.  A value drawn as an integer pair (num, den) in
lowest terms, den > 0, has the same text, `ratio_text`, and becomes a
Fraction through `reduced_fraction`.  `approximate` gives the optional
decimal renderings next to the exact values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` with integer p, q.

    Decimal or exponent notation is rejected: inputs are exact by contract.
    """
    body = text.strip()
    if "/" in body:
        num_part, den_part = body.split("/", 1)
        return Fraction(int(num_part), int(den_part))
    return Fraction(int(body))


def read_rational(value, name: str) -> Fraction:
    """`parse_rational` for input from outside the program.

    Every refusal, a zero denominator or a value that is not a string
    included, is a ValueError that names the field.
    """
    try:
        if isinstance(value, str):
            return parse_rational(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"{name} expects an exact rational like 3 or -3/4, got {value!r}")


def ratio_text(num: int, den: int) -> str:
    """The text of num/den in lowest terms, den > 0, as str(Fraction(num, den)) gives it."""
    return f"{num}" if den == 1 else f"{num}/{den}"


# Fraction of a pair in lowest terms, den > 0, without the second gcd Fraction(num, den) takes:
# the constructor of Fraction's own arithmetic (CPython 3.12 on; _normalize=False before)
reduced_fraction = getattr(Fraction, "_from_coprime_ints", None) or partial(
    Fraction, _normalize=False
)


def approximate(value: Fraction, name: str) -> float:
    """float(value) for a decimal rendering next to an exact value: `ratio_float` of its terms."""
    return ratio_float(value.numerator, value.denominator, name)


def ratio_float(num: int, den: int, name: str) -> float:
    """num / den as a float, the division float(Fraction(num, den)) makes on CPython 3.10-3.13.

    A value beyond the double range is a ValueError that names the option
    asking for the rendering, not an OverflowError.
    """
    try:
        return num / den
    except OverflowError:
        raise ValueError(f"{name} cannot render a value beyond the range of a float") from None

"""Exact rational scalars and small combinatorial helpers.

Every coefficient in this package is an arbitrary-precision rational, so
"equals zero" is decidable and certification never depends on a floating
point tolerance.  Values are :class:`fractions.Fraction`, which already
stores them in lowest terms with a positive denominator and serializes as
``"p/q"`` (or ``"p"`` when the denominator is 1), the wire format used by
all JSON and CSV output.  `approximate` gives the optional decimal
renderings next to the exact values.
"""

from __future__ import annotations

from fractions import Fraction

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


def double_factorial(k: int) -> int:
    """k!! = k (k-2) (k-4) ..., with the conventions (-1)!! = 0!! = 1.

    Extending down to k = -1 keeps ratios of double factorials well
    defined in every dimension n >= 1 that the coefficient formulas use.
    """
    if k < -1:
        raise ValueError(f"double factorial undefined for {k} < -1")
    result = 1
    while k > 1:
        result *= k
        k -= 2
    return result


def approximate(value: Fraction, name: str) -> float:
    """float(value) for a decimal rendering next to an exact value.

    A value beyond the double range is a ValueError that names the option
    asking for the rendering, not an OverflowError.
    """
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} cannot render a value beyond the range of a float") from None

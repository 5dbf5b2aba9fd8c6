"""Exact values of a sequence at a rational paravector, and the truncated exponential.

Every value is taken in binary form: x0 and v commute and v^2 = -|v|^2 is a
rational, so each value is A + B v, returned as the pair (A, B) at a point
(x0, vec) by `binary_values`, `binary_value` and `binary_exp`.  `eval_at`,
`eval_poly` and `exp_truncated`, the library's `Multivector` view, convert
those pairs with the methods of the `Paravector` (itself a pair (x0, vec))
they are given.  Of the commands, only `eval` and `exp` run this module.
"""

from __future__ import annotations

from fractions import Fraction

from . import appell  # run on first use
from .rationals import ONE, ZERO, reduced_fraction


def binary_values(seq: appell.AppellSequence, point) -> list[tuple[Fraction, Fraction]]:
    """(A, B) of p_0..p_m at point = (x0, vec), each member drawn once from `seq.members()`."""
    if len(point[1]) != seq.n:
        raise ValueError(f"point has dimension {len(point[1])}, sequence has {seq.n}")
    return [binary_value(p.pairs(), point) for p in seq.members()]


def binary_value(terms: dict, point) -> tuple[Fraction, Fraction]:
    """(A, B) with sum_{(i,j)} a_{ij} x0^i v^j = A + B v at point = (x0, vec).

    `terms` is a member {(i, j): (num, den)}.  The terms of each vector exponent j
    sum to sum_i a x0^i, with the powers of x0 built one step at a time; that sum,
    times (-|v|^2)^(j//2), goes to A for even j and to B for odd j.
    """
    x0, vec = point
    powers = [ONE]  # x0^0, x0^1, ...
    sums: dict[int, Fraction] = {}
    for (i, j), (num, den) in terms.items():
        while len(powers) <= i:
            powers.append(powers[-1] * x0)
        sums[j] = sums.get(j, ZERO) + reduced_fraction(num, den) * powers[i]
    square = -sum((v * v for v in vec), ZERO)
    parts = [ZERO, ZERO]  # A, B
    for j, total in sums.items():
        parts[j % 2] += total * square ** (j // 2)
    return parts[0], parts[1]


def binary_exp(point, order: int) -> tuple[Fraction, Fraction]:
    """(A, B) of the truncated generalized exponential sum_{k<=order} phi_k(x) / k! at (x0, vec).

    Uses the basic sequence normalized to c_0 = 1, with O(order) rational
    operations: the sum regroups as sum_j c_j v^j / j! * E_(order-j)(x0),
    where E_r = sum_{i<=r} x0^i / i! is a running prefix sum.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    x0, vec = point
    c = appell.coefficient_sequence(len(vec), order).values
    prefix = [ONE]  # E_0(x0), E_1(x0), ...
    term = ONE
    for i in range(1, order + 1):
        term = term * x0 / i
        prefix.append(prefix[-1] + term)
    square = -sum((v * v for v in vec), ZERO)
    parts = [ZERO, ZERO]  # A, B
    weight = ONE  # (-|v|^2)^(j//2) / j!
    for j in range(order + 1):
        if j:
            weight /= j
            if j % 2 == 0:
                weight *= square
        parts[j % 2] += c[j] * weight * prefix[order - j]
    return parts[0], parts[1]


def eval_at(seq: appell.AppellSequence, x) -> list:
    """p_0(x)..p_m(x) at a Paravector x, as Multivectors: `binary_values`, converted."""
    return [_multivector(x, value) for value in binary_values(seq, x)]


def eval_poly(poly: appell.AppellPoly, x):
    """The value at a Paravector x as a Multivector: `binary_value`, converted."""
    return _multivector(x, binary_value(poly.pairs(), x))


def exp_truncated(x, order: int):
    """The truncated exponential at a Paravector x as a Multivector: `binary_exp`, converted.

    On the real line (zero vector part) this is the truncated real
    exponential series; for n = 1 it reproduces truncated complex exponentials.
    """
    return _multivector(x, binary_exp(x, order))


def _multivector(x, value: tuple[Fraction, Fraction]):
    """A + B v as a Multivector, built from the vector part of x; zero terms are dropped."""
    scalar, vec_coeff = value
    return x.vector_to_multivector() * vec_coeff + scalar


def restrict_real(seq: appell.AppellSequence) -> list[list[Fraction]]:
    """Set the vector part to zero; ascending x0 coefficients per degree."""
    return [restrict_poly(p) for p in seq.members()]


def restrict_poly(poly: appell.AppellPoly) -> list[Fraction]:
    """Coefficients in x0 (ascending) after setting the vector part to zero."""
    real = {i: a for (i, j), a in poly.terms.items() if j == 0}
    return [real.get(i, ZERO) for i in range(max(real, default=0) + 1)]

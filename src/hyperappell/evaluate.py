"""Exact values of a sequence at a rational paravector, and the truncated exponential.

Every value is taken in binary form: x0 and v commute and v^2 = -|v|^2
is a rational, so each value is A + B v for two rationals and no Clifford
product is formed.  Of the commands, only `eval` and `exp` run this module.
"""

from __future__ import annotations

from fractions import Fraction

from . import appell, clifford  # run on first use
from .rationals import ONE, ZERO


def eval_at(seq: appell.AppellSequence, x: clifford.Paravector) -> list[clifford.Multivector]:
    """p_0(x)..p_m(x), each member drawn once from `seq.members()`."""
    if x.n != seq.n:
        raise ValueError(f"point has dimension {x.n}, sequence has {seq.n}")
    return [eval_poly(p, x) for p in seq.members()]


def restrict_real(seq: appell.AppellSequence) -> list[list[Fraction]]:
    """Set the vector part to zero; ascending x0 coefficients per degree."""
    return [restrict_poly(p) for p in seq.members()]


def eval_poly(poly: appell.AppellPoly, x: clifford.Paravector) -> clifford.Multivector:
    """Exact value sum_{(i,j)} a_{ij} x0^i v^j at a rational paravector.

    Evaluated in binary form: x0 and v commute and v^2 = -|v|^2 is a
    rational, so the value is A + B v for two rationals.  The terms of
    each vector exponent j sum to sum_i a x0^i, with the powers of x0
    built one step at a time; that sum, times (-|v|^2)^(j//2), goes to A
    for even j and to B for odd j.  No Clifford product is formed.
    """
    powers = [ONE]  # x0^0, x0^1, ...
    sums: dict[int, Fraction] = {}
    for (i, j), a in poly.terms.items():
        while len(powers) <= i:
            powers.append(powers[-1] * x.x0)
        sums[j] = sums.get(j, ZERO) + a * powers[i]
    square = -x.vector_norm_sq()
    parts = [ZERO, ZERO]  # A, B
    for j, total in sums.items():
        parts[j % 2] += total * square ** (j // 2)
    return _paravector_value(x, *parts)


def _paravector_value(
    x: clifford.Paravector, scalar: Fraction, vec_coeff: Fraction
) -> clifford.Multivector:
    """scalar + vec_coeff * v as a multivector; the constructor drops zero terms."""
    terms = {1 << (k - 1): vec_coeff * v for k, v in enumerate(x.vec, start=1)}
    terms[0] = scalar
    return clifford.Multivector(x.n, terms)


def restrict_poly(poly: appell.AppellPoly) -> list[Fraction]:
    """Coefficients in x0 (ascending) after setting the vector part to zero."""
    degree = max((i for (i, j) in poly.terms if j == 0), default=0)
    out = [ZERO] * (degree + 1)
    for (i, j), a in poly.terms.items():
        if j == 0:
            out[i] = a
    return out


def exp_truncated(x: clifford.Paravector, order: int) -> clifford.Multivector:
    """Truncation of the generalized exponential: sum_{k<=order} phi_k(x) / k!.

    Uses the basic sequence normalized to c_0 = 1.  On the real line
    (zero vector part) this reduces to the truncated real exponential
    series; for n = 1 it reproduces truncated complex exponentials.
    Evaluated in binary form with O(order) rational operations: the sum
    regroups as sum_j c_j v^j / j! * E_(order-j)(x0), where
    E_r = sum_{i<=r} x0^i / i! is a running prefix sum, and the value is
    A + B v as in `eval_poly`.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    c = appell.coefficient_sequence(x.n, order).values
    prefix = [ONE]  # E_0(x0), E_1(x0), ...
    term = ONE
    for i in range(1, order + 1):
        term = term * x.x0 / i
        prefix.append(prefix[-1] + term)
    square = -x.vector_norm_sq()
    parts = [ZERO, ZERO]  # A, B
    weight = ONE  # (-|v|^2)^(j//2) / j!
    for j in range(order + 1):
        if j:
            weight /= j
            if j % 2 == 0:
                weight *= square
        parts[j % 2] += c[j] * weight * prefix[order - j]
    return _paravector_value(x, *parts)

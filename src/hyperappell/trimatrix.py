"""The structural lower-triangular matrices, each drawn from its O(m) rule.

Everything that drives the polynomial constructions lives on (m+1)x(m+1)
lower-triangular rational matrices: the creation matrix H with subdiagonal
1..m, the derivation matrices encoding how the vector derivative acts on
powers of the vector variable, generalized Pascal matrices, and the
transfer matrices that map the basic sequence onto the Bernoulli,
Frobenius-Euler and monic Hermite families.

H^k has the single nonzero diagonal i!/j! at i - j = k, so f(H) for a power
series f is the Appell matrix T[i][j] = C(i, j) t_(i-j), where t_k = k! times
the coefficient of z^k in f: the whole matrix is fixed by its first column.
`transfer_column` computes that column in O(m^2) for each name in FAMILIES,
the one family dispatch (canonical is f = 1, the identity).  `appell_rows`
draws the rows from it one at a time, the one definition of an entry of
f(H), and `subdiagonal_rows` those of H and of the derivation matrices from
their one subdiagonal, so a caller that consumes a row before drawing the
next never holds O(m^2) entries.  Each Pascal and transfer matrix is f(H)
for one series:

    canonical           1
    Pascal P(x0)        exp(x0 z)
    Bernoulli           z / (e^z - 1)
    Euler               2 / (e^z + 1)
    Frobenius-Euler     (1 - lam) / (e^z - lam)
    Hermite             exp(-z^2 / 4)

The column of a reciprocal series comes from `egf_reciprocal`, with one
Fraction normalization per coefficient instead of one per product and
partial sum.  The matrices themselves, as `TriMatrix` values, and the
defining matrix series (`nilpotent_exp`, `tri_inverse`) are in `reference`.
Columns are Fractions; the rows are drawn as integer pairs (num, den) in
lowest terms, den > 0, which callers render or turn into Fractions.
Nothing here ever rounds.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import gcd, lcm

from .rationals import ONE, ZERO

TRANSFER_FAMILIES = ("bernoulli", "euler", "frobenius-euler", "hermite")
FAMILIES = ("canonical",) + TRANSFER_FAMILIES


def matrix_json(m: int, rows) -> dict:
    """The one JSON layout of a matrix of order m (`TriMatrix.to_json`); `matrices` renders it."""
    return {"m": m, "rows": [[str(v) for v in row] for row in rows]}


def check_dimension(n: int, shift: int = 0) -> None:
    """The one rule on the dimension n and on the shift s, shared by every entry point."""
    if n < 1:
        raise ValueError(f"dimension n must be at least 1, got {n}")
    if shift < 0:
        raise ValueError("shift must be nonnegative")


def derivation_entry(n: int, i: int, shift: int = 0) -> int:
    """Entry (i, i-1) of the derivation matrix, for any row i >= 1.

    -(n + i + 2*shift - 1) for odd i and -i for even i.  With shift = 0 this
    encodes the identity (vector derivative of v^k) = -k v^(k-1) for even k
    and -(n+k-1) v^(k-1) for odd k; shift > 0 is the variant for sequences
    that carry a fixed monogenic polynomial factor of degree `shift`.
    """
    return -(n + i + 2 * shift - 1) if i % 2 else -i


def subdiagonal_rows(m: int, entry) -> Iterator[list[tuple[int, int]]]:
    """The rows of the order-m matrix whose only nonzero entries are entry(i) at (i, i-1).

    entry(i) is an integer, and every entry is drawn as the pair (num, 1).  A negative order
    is refused at the call, before the first row is drawn.
    """
    if m < 0:
        raise ValueError("order must be nonnegative")
    zero = (0, 1)
    return ([zero] * (i - 1) + [(entry(i), 1), zero] if i else [zero] for i in range(m + 1))


def binomial_rows() -> Iterator[list[int]]:
    """C(k, 0..k) for k = 0, 1, ...: each row from the last by Pascal's rule, one addition each."""
    row: list[int] = []
    while True:
        row = [1] + [a + b for a, b in zip(row, row[1:] + [0])]
        yield row


def appell_rows(column: Sequence[Fraction]) -> Iterator[list[tuple[int, int]]]:
    """The rows [C(i, j) t_(i-j) for j = 0..i] of the Appell matrix of t_0..t_m, one at a time.

    Each entry is the pair (num, den) in lowest terms, den > 0: with t = p/q
    reduced and g = gcd(C(i, j), q), it is (C(i, j)/g * p, q/g), one gcd per
    entry, of a binomial from `binomial_rows` (a zero t has q = 1, so its
    entry is (0, 1)).  An empty column is refused at the call, before the
    first row is drawn.
    """
    if not column:
        raise ValueError("order must be nonnegative")
    pairs = [(t.numerator, t.denominator) for t in column]
    return ([(c // g * p, q // g) for c, (p, q) in zip(binomials, pairs[i::-1])
             for g in [gcd(c, q)]]
            for i, binomials in zip(range(len(pairs)), binomial_rows()))


def egf_reciprocal(g: Sequence[Fraction]) -> list[Fraction]:
    """Exponential generating coefficients of 1/g, for g_0 != 0.

    Forward substitution on column 0 of g(H) f(H) = I:
    f_k = -(1/g_0) sum_(l<k) C(k, l) g_(k-l) f_l.
    Each f_k is normalized once: the k products stay integer
    numerator/denominator pairs, are summed over the lcm of their
    denominators, and only that sum becomes a Fraction (one gcd).
    """
    g_num = [v.numerator for v in g]
    g_den = [v.denominator for v in g]
    f_num: list[int] = []
    f_den: list[int] = []
    f: list[Fraction] = []
    for k, binomials in zip(range(len(g)), binomial_rows()):
        pairs = [
            (binomials[l] * g_num[k - l] * f_num[l], g_den[k - l] * f_den[l])
            for l in range(k)
            if g_num[k - l] and f_num[l]
        ]
        den = lcm(*(d for _, d in pairs))
        total = -sum(p * (den // d) for p, d in pairs) if k else 1
        # a zero g_0 raises ZeroDivisionError here, at k = 0
        value = Fraction(total * g_den[0], den * g_num[0])
        f.append(value)
        f_num.append(value.numerator)
        f_den.append(value.denominator)
    return f


def pascal_column(x0: Fraction, m: int) -> list[Fraction]:
    """Column x0^0..x0^m of the Pascal matrix P(x0) = exp(x0 H)."""
    x0 = Fraction(x0)
    return [x0**k for k in range(m + 1)]


def check_lambda(family: str, lam: Fraction | None) -> None:
    """The one rule on `lam`: frobenius-euler needs one other than 1, no other family takes one."""
    if family == "frobenius-euler":
        if lam is None:
            raise ValueError("frobenius-euler requires a lambda parameter")
        if lam == 1:
            raise ValueError("lambda must differ from 1")
    elif lam is not None:
        raise ValueError(f"lambda only applies to the frobenius-euler family, not {family!r}")


def transfer_column(family: str, m: int, lam: Fraction | None = None) -> list[Fraction]:
    """Column t_0..t_m of the transfer matrix f(H) of a family in FAMILIES; empty for m < 0.

    `lam` is checked by `check_lambda`.  O(m^2) rational operations; the
    matrix itself is `reference.appell_matrix` of this column.
    """
    check_lambda(family, lam)
    if family == "canonical":
        # f = 1: the identity
        return [ONE if k == 0 else ZERO for k in range(m + 1)]
    if family == "bernoulli":
        # z / (e^z - 1): the reciprocal of (e^z - 1)/z, whose coefficients are 1/(k+1)
        return egf_reciprocal([Fraction(1, k + 1) for k in range(m + 1)])
    if family in ("euler", "frobenius-euler"):
        # (1 - lam) / (e^z - lam), with lam = -1 for Euler; e^z - lam is (1 - lam, 1, 1, ...)
        lam = Fraction(-1 if lam is None else lam)
        series = [ONE - lam if k == 0 else ONE for k in range(m + 1)]
        return [(ONE - lam) * f for f in egf_reciprocal(series)]
    if family == "hermite":
        # exp(-z^2/4): t_(2k) = (-1)^k (2k)! / (4^k k!) = -(2k-1)/2 t_(2k-2), odd entries 0
        column = []
        for k in range(m + 1):
            if k % 2:
                column.append(ZERO)
            else:
                column.append(column[-2] * Fraction(1 - k, 2) if k else ONE)
        return column
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")

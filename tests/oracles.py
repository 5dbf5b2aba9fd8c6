"""Independent reference implementations used only by the tests.

Everything here is deliberately written against different algorithms and
different data layouts (index tuples, dense lists) than the library, so an
agreement is meaningful.
"""

from fractions import Fraction
from math import comb, factorial


# -- blade products over sorted index tuples -------------------------------


def naive_blade_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Multiply basis blades by explicit generator shuffling.

    Concatenate the generator sequences, then repeatedly swap out-of-order
    neighbours (each swap of distinct generators flips the sign) and
    contract equal neighbours via e_k e_k = -1.
    """
    seq = list(a) + list(b)
    sign = 1
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(seq) - 1:
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
                i += 1
            elif seq[i] == seq[i + 1]:
                del seq[i : i + 2]
                sign = -sign
                changed = True
                i = max(i - 1, 0)
            else:
                i += 1
    return sign, tuple(seq)


# -- dense exact matrices ---------------------------------------------------


def dense_identity(size: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]


def dense_mul(a, b):
    size = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(size)), Fraction(0)) for j in range(size)]
        for i in range(size)
    ]


def dense_scale(a, factor):
    return [[v * Fraction(factor) for v in row] for row in a]


def dense_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_inverse(a):
    """Gauss-Jordan over Fraction; raises on a singular input."""
    size = len(a)
    work = [list(row) + ident for row, ident in zip(a, dense_identity(size))]
    for col in range(size):
        pivot = next((r for r in range(col, size) if work[r][col]), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        work[col], work[pivot] = work[pivot], work[col]
        inv = Fraction(1) / work[col][col]
        work[col] = [v * inv for v in work[col]]
        for r in range(size):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [v - factor * w for v, w in zip(work[r], work[col])]
    return [row[size:] for row in work]


def dense_creation(m: int) -> list[list[Fraction]]:
    h = [[Fraction(0)] * (m + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        h[i][i - 1] = Fraction(i)
    return h


def dense_pascal_one(m: int) -> list[list[Fraction]]:
    return [[Fraction(comb(i, j)) for j in range(m + 1)] for i in range(m + 1)]


def egf_reciprocal_by_fractions(g: list[Fraction]) -> list[Fraction]:
    """Exponential generating coefficients of 1/g by the Fraction recurrence.

    f_k = -(1/g_0) sum_(l<k) C(k, l) g_(k-l) f_l, with every product and
    partial sum a normalized Fraction; the library sums each f_k over an lcm.
    """
    f: list[Fraction] = []
    for k in range(len(g)):
        acc = Fraction(1) if k == 0 else -sum(comb(k, l) * g[k - l] * f[l] for l in range(k))
        f.append(acc / g[0])
    return f


# -- coefficients ----------------------------------------------------------


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


# -- classical polynomial families, ascending coefficient lists -------------


def bernoulli_numbers(m: int) -> list[Fraction]:
    """B_0..B_m from sum_{j<=k} C(k+1,j) B_j = 0."""
    numbers = [Fraction(1)]
    for k in range(1, m + 1):
        acc = sum((comb(k + 1, j) * numbers[j] for j in range(k)), Fraction(0))
        numbers.append(-acc / (k + 1))
    return numbers


def bernoulli_polys(m: int) -> list[list[Fraction]]:
    numbers = bernoulli_numbers(m)
    polys = []
    for k in range(m + 1):
        coeffs = [Fraction(0)] * (k + 1)
        for i in range(k + 1):
            coeffs[i] = comb(k, k - i) * numbers[k - i]
        polys.append(coeffs)
    return polys


def euler_polys_recurrence(m: int) -> list[list[Fraction]]:
    """E_k(x) = x^k - (1/2) sum_{j<k} C(k,j) E_j(x)."""
    polys: list[list[Fraction]] = []
    for k in range(m + 1):
        coeffs = [Fraction(0)] * (k + 1)
        coeffs[k] = Fraction(1)
        for j in range(k):
            weight = Fraction(comb(k, j), 2)
            for i, c in enumerate(polys[j]):
                coeffs[i] -= weight * c
        polys.append(coeffs)
    return polys


def euler_polys_inverse(m: int) -> list[list[Fraction]]:
    """Rows of 2 (P(1) + I)^(-1) are the Euler coefficient lists."""
    transfer = dense_scale(
        dense_inverse(dense_add(dense_pascal_one(m), dense_identity(m + 1))), 2
    )
    return [row[: k + 1] for k, row in enumerate(transfer)]


def hermite_polys_recurrence(m: int) -> list[list[Fraction]]:
    """Monic Hermite: H_{k+1}(x) = x H_k(x) - (k/2) H_{k-1}(x)."""
    polys = [[Fraction(1)]]
    if m >= 1:
        polys.append([Fraction(0), Fraction(1)])
    for k in range(1, m):
        shifted = [Fraction(0)] + polys[k]
        prev = polys[k - 1] + [Fraction(0), Fraction(0)]
        polys.append([a - Fraction(k, 2) * b for a, b in zip(shifted, prev)])
    return polys


def hermite_polys_series(m: int) -> list[list[Fraction]]:
    """Rows of sum_k (-H^2/4)^k / k! applied to the monomial basis."""
    h2 = dense_mul(dense_creation(m), dense_creation(m))
    total = dense_identity(m + 1)
    term = dense_identity(m + 1)
    k = 0
    while any(any(v for v in row) for row in term):
        k += 1
        term = dense_scale(dense_mul(term, h2), Fraction(-1, 4 * k))
        total = dense_add(total, term)
    return [row[: k + 1] for k, row in enumerate(total)]

"""Exact lower-triangular matrix algebra.

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
draws the rows from it one at a time, and `subdiagonal_rows` those of H
and of the derivation matrices from their one subdiagonal, so a caller that
consumes a row before drawing the next never holds O(m^2) entries.  Each
Pascal and transfer matrix is f(H) for one series (`appell_matrix`):

    canonical           1
    Pascal P(x0)        exp(x0 z)
    Bernoulli           z / (e^z - 1)
    Euler               2 / (e^z + 1)
    Frobenius-Euler     (1 - lam) / (e^z - lam)
    Hermite             exp(-z^2 / 4)

The column of a reciprocal series comes from `egf_reciprocal`, with one
Fraction normalization per coefficient instead of one per product and
partial sum.  `nilpotent_exp`, `tri_inverse` and `TriMatrix.power`
compute the same matrices by the defining matrix series and stay as the
reference route.  Entries are Fractions throughout; nothing here ever
rounds.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import comb, lcm

from .rationals import ONE, ZERO

TRANSFER_FAMILIES = ("bernoulli", "euler", "frobenius-euler", "hermite")
FAMILIES = ("canonical",) + TRANSFER_FAMILIES


class TriMatrix:
    """Lower-triangular rational matrix, stored as ragged rows.

    Row i holds the i+1 entries (i, 0) .. (i, i); everything above the
    diagonal is identically zero.  Instances are treated as immutable:
    all operations return new matrices.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[Fraction]]):
        clean = []
        for i, row in enumerate(rows):
            if len(row) != i + 1:
                raise ValueError(f"row {i} must have {i + 1} entries, got {len(row)}")
            clean.append([v if type(v) is Fraction else Fraction(v) for v in row])
        if not clean:
            raise ValueError("a triangular matrix has at least one row")
        self.rows = clean

    @classmethod
    def _of_rows(cls, rows: list[list[Fraction]]) -> "TriMatrix":
        """Wrap freshly built rows of Fractions without checking or copying them."""
        matrix = object.__new__(cls)
        matrix.rows = rows
        return matrix

    @property
    def order(self) -> int:
        """m, for an (m+1)x(m+1) matrix."""
        return len(self.rows) - 1

    @classmethod
    def zeros(cls, m: int) -> "TriMatrix":
        return cls([[ZERO] * (i + 1) for i in range(m + 1)])

    @classmethod
    def identity(cls, m: int) -> "TriMatrix":
        return cls([[ZERO] * i + [ONE] for i in range(m + 1)])

    @classmethod
    def diagonal(cls, values: Sequence[Fraction]) -> "TriMatrix":
        return cls([[ZERO] * i + [Fraction(values[i])] for i in range(len(values))])

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i <= self.order and 0 <= j <= self.order):
            raise IndexError(f"index {key} out of range for order {self.order}")
        return self.rows[i][j] if j <= i else ZERO

    def __eq__(self, other):
        if not isinstance(other, TriMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(tuple(tuple(row) for row in self.rows))

    def is_zero(self) -> bool:
        return all(not v for row in self.rows for v in row)

    def is_strictly_lower(self) -> bool:
        return all(not row[i] for i, row in enumerate(self.rows))

    def diagonal_entries(self) -> list[Fraction]:
        return [row[i] for i, row in enumerate(self.rows)]

    def subdiagonal(self) -> list[Fraction]:
        return [self.rows[i][i - 1] for i in range(1, self.order + 1)]

    def _require_same_order(self, other: "TriMatrix") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "TriMatrix") -> "TriMatrix":
        if not isinstance(other, TriMatrix):
            return NotImplemented
        self._require_same_order(other)
        return TriMatrix._of_rows(
            [
                [a + b for a, b in zip(row, orow)]
                for row, orow in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "TriMatrix") -> "TriMatrix":
        if not isinstance(other, TriMatrix):
            return NotImplemented
        self._require_same_order(other)
        return TriMatrix._of_rows(
            [
                [a - b for a, b in zip(row, orow)]
                for row, orow in zip(self.rows, other.rows)
            ]
        )

    def scale(self, factor) -> "TriMatrix":
        factor = Fraction(factor)
        return TriMatrix._of_rows([[v * factor for v in row] for row in self.rows])

    def __matmul__(self, other: "TriMatrix") -> "TriMatrix":
        """Exact product; the product of lower-triangular matrices is one."""
        if not isinstance(other, TriMatrix):
            return NotImplemented
        self._require_same_order(other)
        orows = other.rows
        out = []
        for srow in self.rows:
            # Only the nonzero entries (k, a) of row i contribute to (i, j).
            terms = [(k, a) for k, a in enumerate(srow) if a]
            row = []
            for j in range(len(srow)):
                acc = None
                for k, a in terms:
                    if k >= j:
                        b = orows[k][j]
                        if b:
                            acc = a * b if acc is None else acc + a * b
                row.append(ZERO if acc is None else acc)
            out.append(row)
        return TriMatrix._of_rows(out)

    def apply(self, vector: Sequence) -> list:
        """Matrix action on a vector of ring elements.

        Elements only need addition among themselves and multiplication by
        Fraction scalars, so this works for rationals, multivectors, and
        polynomial objects alike.
        """
        if len(vector) != self.order + 1:
            raise ValueError(
                f"vector length {len(vector)} does not match order {self.order}"
            )
        out = []
        for i in range(self.order + 1):
            acc = None
            for j in range(i + 1):
                entry = self.rows[i][j]
                if entry:
                    contrib = entry * vector[j]
                    acc = contrib if acc is None else acc + contrib
            if acc is None:
                acc = ZERO * vector[i]
            out.append(acc)
        return out

    def power(self, exponent: int) -> "TriMatrix":
        if exponent < 0:
            raise ValueError("only nonnegative matrix powers are defined")
        result = TriMatrix.identity(self.order)
        for _ in range(exponent):
            result = result @ self
        return result

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, row)) for row in self.rows)
        return f"TriMatrix[{body}]"

    def to_json(self) -> dict:
        return matrix_json(self.order, self.rows)


def matrix_json(m: int, rows, array=list) -> dict:
    """The one JSON layout of a matrix of order m; `array=iter` leaves the rows lazy for a writer."""
    return {"m": m, "rows": array([str(v) for v in row] for row in rows)}


def creation_matrix(m: int) -> TriMatrix:
    """The nilpotent matrix with subdiagonal 1, 2, ..., m and zeros elsewhere.

    Its action on the coefficient vector of a polynomial sequence is formal
    differentiation, and its terminating exponential generates the Pascal
    matrices.
    """
    return TriMatrix._of_rows(list(subdiagonal_rows(m, Fraction)))


def check_dimension(n: int, shift: int = 0) -> None:
    """The one rule on the dimension n and on the shift s, shared by every entry point."""
    if n < 1:
        raise ValueError(f"dimension n must be at least 1, got {n}")
    if shift < 0:
        raise ValueError("shift must be nonnegative")


def derivation_matrix(n: int, m: int, shift: int = 0) -> TriMatrix:
    """Matrix of the vector derivative acting on powers of the vector variable.

    Its one nonzero diagonal is `derivation_entry` at (i, i-1); n = 1, shift = 0 gives -H.
    """
    check_dimension(n, shift)
    return TriMatrix._of_rows(list(subdiagonal_rows(m, lambda i: derivation_entry(n, i, shift))))


def derivation_entry(n: int, i: int, shift: int = 0) -> Fraction:
    """Entry (i, i-1) of the derivation matrix, for any row i >= 1.

    -(n + i + 2*shift - 1) for odd i and -i for even i.  With shift = 0 this
    encodes the identity (vector derivative of v^k) = -k v^(k-1) for even k
    and -(n+k-1) v^(k-1) for odd k; shift > 0 is the variant for sequences
    that carry a fixed monogenic polynomial factor of degree `shift`.
    """
    if i % 2:
        return Fraction(-(n + i + 2 * shift - 1))
    return Fraction(-i)


def subdiagonal_rows(m: int, entry) -> Iterator[list[Fraction]]:
    """The rows of the order-m matrix whose only nonzero entries are entry(i) at (i, i-1).

    A negative order is refused at the call, before the first row is drawn.
    """
    if m < 0:
        raise ValueError("order must be nonnegative")
    return ([ZERO] * (i - 1) + [entry(i), ZERO] if i else [ZERO] for i in range(m + 1))


def nilpotent_exp(matrix: TriMatrix, t: Fraction) -> TriMatrix:
    """exp(t * M) for strictly lower-triangular M; the series terminates.

    M^(m+1) = 0 for an (m+1)x(m+1) strictly lower-triangular matrix, so the
    exponential is the exact finite sum of t^k M^k / k! for k = 0..m.
    """
    if not matrix.is_strictly_lower():
        raise ValueError("nilpotent_exp requires a zero diagonal")
    t = Fraction(t)
    m = matrix.order
    scaled = matrix.scale(t)
    result = TriMatrix.identity(m)
    term = TriMatrix.identity(m)
    for k in range(1, m + 1):
        term = (term @ scaled).scale(Fraction(1, k))
        if term.is_zero():
            break
        result = result + term
    return result


def appell_rows(column: Sequence[Fraction]) -> Iterator[list[Fraction]]:
    """The rows [C(i, j) t_(i-j) for j = 0..i] of the Appell matrix of t_0..t_m, one at a time.

    An empty column is refused at the call, before the first row is drawn.
    """
    if not column:
        raise ValueError("order must be nonnegative")
    return ([comb(i, j) * column[i - j] for j in range(i + 1)] for i in range(len(column)))


def appell_matrix(column: Sequence[Fraction]) -> TriMatrix:
    """The Appell matrix T[i][j] = C(i, j) t_(i-j) of the column t_0..t_m.

    This is f(H) for the series f whose exponential generating coefficients
    (k! [z^k] f) are the t_k; its first column is the t_k themselves.
    """
    column = [v if type(v) is Fraction else Fraction(v) for v in column]
    return TriMatrix._of_rows(list(appell_rows(column)))


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
    binomials: list[int] = []
    for k in range(len(g)):
        # C(k, 0..k) from C(k-1, 0..k-1) by Pascal's rule: one addition per entry
        binomials = [1] + [a + b for a, b in zip(binomials, binomials[1:] + [0])]
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


def pascal_matrix(x0: Fraction, m: int) -> TriMatrix:
    """Generalized Pascal matrix with entries C(i, j) * x0^(i-j).

    The series is exp(x0 z): P(x0) = exp(x0 H), and the semigroup law
    P(a) P(b) = P(a+b) holds.
    """
    return appell_matrix(pascal_column(x0, m))


def tri_inverse(matrix: TriMatrix) -> TriMatrix:
    """Exact inverse of a lower-triangular matrix by forward substitution."""
    m = matrix.order
    for i, d in enumerate(matrix.diagonal_entries()):
        if not d:
            raise ZeroDivisionError(f"singular matrix: zero diagonal entry at {i}")
    inv = TriMatrix.zeros(m)
    for j in range(m + 1):
        inv.rows[j][j] = ONE / matrix.rows[j][j]
        for i in range(j + 1, m + 1):
            acc = ZERO
            for k in range(j, i):
                a = matrix.rows[i][k]
                if a:
                    acc += a * inv.rows[k][j]
            inv.rows[i][j] = -acc / matrix.rows[i][i]
    return inv


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
    matrix itself is `appell_matrix` of this column.
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


def transfer_matrix(family: str, m: int, lam: Fraction | None = None) -> TriMatrix:
    """The transfer matrix of a family in FAMILIES: `appell_matrix` of its column."""
    return appell_matrix(transfer_column(family, m, lam))

"""The reference route: the paper's matrices and the full Cl(0,n) expansion.

The command line works from series columns and the binary form x0^i v^j.
This module keeps the routes the paper states, which the tests and demos
compare those against: `TriMatrix` with H, the derivation, Appell, Pascal
and transfer matrices, `nilpotent_exp` and `tri_inverse`; the closed form
of c_k; the expansion over x0..xn with the operators `dirac`, `cr` and
`cr_bar` and the checks made on it; and `vector_power`, v^j in closed
form.  No module on the command line's import path imports this one.
Entries are Fractions; nothing rounds.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .appell import AppellPoly, AppellSequence, vector_power_expansion
from .clifford import Multivector, Paravector
from .operators import HALF, DegreeCheck, VerifyReport
from .polynomials import CliffordPoly
from .rationals import ONE, ZERO, reduced_fraction
from .trimatrix import (
    appell_rows,
    check_dimension,
    derivation_entry,
    pascal_column,
    subdiagonal_rows,
    transfer_column,
)


# -- lower-triangular matrices ---------------------------------------------


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

    @classmethod
    def _of_pairs(cls, rows) -> "TriMatrix":
        """The matrix of rows of (num, den) pairs in lowest terms, as `trimatrix` draws them."""
        return cls._of_rows([[reduced_fraction(*v) for v in row] for row in rows])

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
        """The layout of the matrix as a dict.  `matrices` writes its text row by row from
        `cli_matrices._json_pieces`; the tests compare the two."""
        return {"m": self.order, "rows": [[str(v) for v in row] for row in self.rows]}


def creation_matrix(m: int) -> TriMatrix:
    """The nilpotent matrix with subdiagonal 1, 2, ..., m and zeros elsewhere.

    Its action on the coefficient vector of a polynomial sequence is formal
    differentiation, and its terminating exponential generates the Pascal
    matrices.
    """
    return TriMatrix._of_pairs(subdiagonal_rows(m, int))


def derivation_matrix(n: int, m: int, shift: int = 0) -> TriMatrix:
    """Matrix of the vector derivative acting on powers of the vector variable.

    Its one nonzero diagonal is `derivation_entry` at (i, i-1); n = 1, shift = 0 gives -H.
    """
    check_dimension(n, shift)
    return TriMatrix._of_pairs(subdiagonal_rows(m, lambda i: derivation_entry(n, i, shift)))


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


def appell_matrix(column: Sequence[Fraction]) -> TriMatrix:
    """The Appell matrix T[i][j] = C(i, j) t_(i-j) of the column t_0..t_m.

    This is f(H) for the series f whose exponential generating coefficients
    (k! [z^k] f) are the t_k; its first column is the t_k themselves.
    """
    column = [v if type(v) is Fraction else Fraction(v) for v in column]
    return TriMatrix._of_pairs(appell_rows(column))


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


def transfer_matrix(family: str, m: int, lam: Fraction | None = None) -> TriMatrix:
    """The transfer matrix of a family in FAMILIES: `appell_matrix` of its column."""
    return appell_matrix(transfer_column(family, m, lam))


# -- coefficients and the multivariate expansion ----------------------------


def closed_form_coefficient(n: int, k: int, c0: Fraction = ONE, shift: int = 0) -> Fraction:
    """c_k by the double-factorial formula (valid for all n >= 1).

    c_{2r} = c_{2r-1} = (2r-1)!! (n+2s-2)!! / (n+2r+2s-2)!! * c_0; the ratio
    of the last two is 1 / prod_{t=1..r} (n+2s-2+2t), r factors for any n.
    """
    num = den = 1
    for t in range(1, (k + 1) // 2 + 1):
        num *= 2 * t - 1
        den *= n + 2 * shift - 2 + 2 * t
    return Fraction(num, den) * Fraction(c0)


def expand_multivariate(poly: AppellPoly, n: int) -> CliffordPoly:
    """Binary form to full multivariate form over x0..xn."""
    acc = CliffordPoly.zero(n)
    for (i, j), a in poly.terms.items():
        block = vector_power_expansion(n, j)
        shifted = {
            (i,) + exps[1:]: coeff * a for exps, coeff in block.terms.items()
        }
        acc = acc + CliffordPoly(n, shifted)
    return acc


def expand_sequence(seq: AppellSequence) -> list[CliffordPoly]:
    return [expand_multivariate(p, seq.n) for p in seq.polys]


def vector_power(x: Paravector, j: int) -> Multivector:
    """j-th power of a pure vector, in closed form.

    A vector v squares to the scalar -(x1^2 + ... + xn^2), so

        v^j = (-|v|^2)^(j/2)            for even j,
        v^j = (-|v|^2)^((j-1)/2) * v    for odd j.
    """
    if x.x0:
        raise ValueError("vector_power expects a paravector with zero scalar part")
    if j < 0:
        raise ValueError("vector_power expects a nonnegative exponent")
    square = -x.vector_norm_sq()
    scale = square ** (j // 2)
    if j % 2 == 0:
        return Multivector.scalar(x.n, scale)
    return x.vector_to_multivector() * scale


# -- operators on the expansion ---------------------------------------------


def partial_x0(poly: CliffordPoly) -> CliffordPoly:
    return poly.partial(0)


def dirac(poly: CliffordPoly) -> CliffordPoly:
    """Vector derivative sum_k e_k d(poly)/dx_k, with e_k acting from the left."""
    acc = CliffordPoly.zero(poly.n)
    for k in range(1, poly.n + 1):
        ek = Multivector.generator(poly.n, k)
        acc = acc + poly.partial(k).map_coefficients(lambda c, ek=ek: ek * c)
    return acc


def cr(poly: CliffordPoly) -> CliffordPoly:
    """Conjugate generalized Cauchy-Riemann operator, (d/dx0 - Dv)/2."""
    return (partial_x0(poly) - dirac(poly)) * HALF


def cr_bar(poly: CliffordPoly) -> CliffordPoly:
    """Generalized Cauchy-Riemann operator, (d/dx0 + Dv)/2."""
    return (partial_x0(poly) + dirac(poly)) * HALF


def _witness(residual: CliffordPoly) -> dict:
    exps, coeff = residual.leading_term()
    return {"exponents": list(exps), "coeff": coeff.to_json()}


def check_monogenic(seq: AppellSequence) -> VerifyReport:
    """D p_k = 0 for every degree, with a witness monomial on failure."""
    expanded = expand_sequence(seq)
    results = []
    for k, poly in enumerate(expanded):
        residual = cr_bar(poly)
        if residual.is_zero():
            results.append(DegreeCheck(k, monogenic=True))
        else:
            results.append(DegreeCheck(k, monogenic=False, witness=_witness(residual)))
    return VerifyReport(n=seq.n, family=seq.family, results=results, shift=seq.shift)


def check_appell(seq: AppellSequence) -> VerifyReport:
    """D* p_k = k p_{k-1} for every degree; degree 0 holds vacuously."""
    expanded = expand_sequence(seq)
    results = [DegreeCheck(0, ladder=True)]
    for k in range(1, len(expanded)):
        residual = cr(expanded[k]) - expanded[k - 1] * Fraction(k)
        if residual.is_zero():
            results.append(DegreeCheck(k, ladder=True))
        else:
            results.append(DegreeCheck(k, ladder=False, witness=_witness(residual)))
    return VerifyReport(n=seq.n, family=seq.family, results=results, shift=seq.shift)


def check_xi_derivation(n: int, m: int) -> bool:
    """Dv applied to the column of vector powers matches the matrix action.

    Row j of the derivation matrix has a single entry at j-1, so the check
    compares Dv v^j against that entry times v^(j-1), as polynomials.
    """
    matrix = derivation_matrix(n, m)
    for j in range(m + 1):
        derived = dirac(vector_power_expansion(n, j))
        expected = CliffordPoly.zero(n)
        if j:
            expected = vector_power_expansion(n, j - 1) * matrix[j, j - 1]
        if derived != expected:
            return False
    return True

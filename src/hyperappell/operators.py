"""Hypercomplex differential operators and symbolic certification.

The generalized Cauchy-Riemann operator and its conjugate are

    D  = (d/dx0 + Dv) / 2,        D* = (d/dx0 - Dv) / 2,

with Dv = sum_k e_k d/dx_k the vector derivative.  A polynomial is
monogenic when D annihilates it, and a monogenic sequence is Appell when
D* acts as degree lowering: D* p_k = k p_{k-1}.  certify decides both
exactly on the binary form sum a_ij x0^i v^j, first by structure: in
degree l the kernel of D is spanned by phi_l, so p_k is monogenic exactly
when each homogeneous part is alpha_(k,l) phi_l, and as D* phi_l =
l phi_(l-1), the ladder is then l alpha_(k,l) = k alpha_(k-1,l-1).  That
costs one integer comparison per term.  Only a degree where p_k or p_(k-1)
is no such sum, or the alphas disagree, forms the two binary residuals,
with Dv v^j = Ht[j, j-1] v^(j-1), at a few rational operations per term:
distinct x0^i v^j share no expanded monomial, so a zero binary residual
is an exact zero, and a nonzero one gives the witness.  check_monogenic and
check_appell, the reference route, expand members into multivariate
polynomials instead.  Both report a failing degree with the same witness
monomial, so negative controls produce usable evidence instead of a bare
boolean.

Coefficient-level identities live alongside: the vector derivative acts on
the column of vector powers through a one-subdiagonal matrix, and the
defining coefficient constraint is equivalent to an anticommutation
relation between the creation matrix and that subdiagonal matrix weighted
by the coefficient diagonal.  Both matrices have one nonzero subdiagonal,
so the relation is checked on that diagonal alone, m scalar comparisons
for the n, s and c_0..c_m that a CoeffSequence carries; the tests keep
the dense matrix product as its reference.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb

from .appell import (
    AppellPoly,
    AppellSequence,
    CoeffSequence,
    coefficient_sequence,
    expand_sequence,
    vector_power_expansion,
)
from .clifford import Multivector
from .polynomials import CliffordPoly
from .rationals import ZERO
from .trimatrix import check_dimension, derivation_entry, derivation_matrix

HALF = Fraction(1, 2)


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


class DegreeCheck(namedtuple("DegreeCheck", "k monogenic ladder witness", defaults=(None,) * 3)):
    """Outcome at one degree; a None field means the check was not run."""

    __slots__ = ()
    k: int
    monogenic: bool | None
    ladder: bool | None
    witness: dict | None

    @property
    def passed(self) -> bool:
        return self.monogenic is not False and self.ladder is not False

    def to_json(self) -> dict:
        out: dict = {"k": self.k}
        if self.monogenic is not None:
            out["monogenic"] = self.monogenic
        if self.ladder is not None:
            out["ladder"] = self.ladder
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class VerifyReport(
    namedtuple("VerifyReport", "n family results intertwining shift", defaults=(None, 0))
):
    """Per-degree certification results for one sequence."""

    __slots__ = ()
    n: int
    family: str
    results: list[DegreeCheck]
    intertwining: bool | None
    shift: int

    @property
    def ok(self) -> bool:
        if self.intertwining is False:
            return False
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "family": self.family,
            "s": self.shift,
            "ok": self.ok,
            "results": [r.to_json() for r in self.results],
        }
        if self.intertwining is not None:
            out["intertwining"] = self.intertwining
        return out


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


def check_intertwining(coeffs: CoeffSequence) -> bool:
    """H D_c + D_c Ht = 0 for the degrees 0..m, with n, s and m those of `coeffs`.

    H and Ht each have one nonzero subdiagonal and D_c is diagonal, so the
    left side vanishes off the first subdiagonal, whose entry (i, i-1) is
    i c_(i-1) + c_i Ht[i, i-1].  For even j = i-1 that is the recurrence
    (j+1) c_j = (n+j+2s) c_(j+1), for odd j it is c_j = c_(j+1).
    """
    n, s, c = coeffs.n, coeffs.shift, coeffs.values
    check_dimension(n, s)
    return all(i * c[i - 1] + c[i] * derivation_entry(n, i, s) == 0 for i in range(1, len(c)))


def _binary_cr(poly: AppellPoly, n: int, sign: int) -> AppellPoly:
    """(d/dx0 + sign * Dv) / 2 on the (i, j) terms of poly: Dv v^j = Ht[j, j-1] v^(j-1)."""
    terms: dict[tuple[int, int], Fraction] = {}
    for (i, j), a in poly.terms.items():
        if i:
            terms[(i - 1, j)] = terms.get((i - 1, j), ZERO) + i * a
        if j:
            terms[(i, j - 1)] = terms.get((i, j - 1), ZERO) + sign * derivation_entry(n, j) * a
    return AppellPoly(poly.degree, terms) * HALF


def _binary_witness(residual: AppellPoly, n: int) -> dict:
    """Graded-lex leading term of the residual expanded over x0..xn.

    x0^i v^j expands into monomials of x0-degree i and total degree i+j; the
    first is x0^i xn^j, with coefficient (-1)^(j//2), times e_n for odd j.
    """
    i, j = min(residual.terms, key=lambda ij: (ij[0] + ij[1], ij[0]))
    coeff = residual.terms[(i, j)] * (-1) ** (j // 2)
    blade = Multivector.blade(n, (n,) if j % 2 else (), coeff)
    return {"exponents": [i] + [0] * (n - 1) + [j], "coeff": blade.to_json()}


def _phi_table(n: int, m: int) -> list[list[tuple[int, int]]]:
    """C(l,j) c_j for j = 0..l, l = 0..m, as (numerator, denominator): phi_l, with c_0 = 1."""
    c = coefficient_sequence(n, m).values
    return [[(comb(l, j) * c[j].numerator, c[j].denominator) for j in range(l + 1)]
            for l in range(m + 1)]


def _multiples(poly: AppellPoly, k: int, phi: list[list[tuple[int, int]]]):
    """alpha_0..alpha_k with poly = sum_l alpha_l phi_l, or None if poly is no such sum.

    phi_l spans the kernel of D in degree l and its x0^l coefficient is 1,
    so alpha_l is poly's x0^l coefficient.  A part with alpha_l != 0 must
    hold all l+1 keys; the count refuses any other key, a part above k too.
    a = alpha * b is compared cross-multiplied, in integers.
    """
    terms = poly.terms
    alphas = [terms.get((l, 0), ZERO) for l in range(k + 1)]
    count = 0
    for l, alpha in enumerate(alphas):
        if alpha:
            count += l + 1
            p, q = alpha.numerator, alpha.denominator
            row = phi[l]
            for j in range(1, l + 1):
                a = terms.get((l - j, j))
                b, d = row[j]
                if a is None or a.numerator * q * d != p * b * a.denominator:
                    return None
    return alphas if count == len(terms) else None


def _passes_by_structure(k: int, alphas: list[list[Fraction] | None]) -> bool:
    """p_k and p_(k-1) are sums of multiples and l alpha_(k,l) = k alpha_(k-1,l-1), l = 1..k.

    The alphas are compared cross-multiplied, in integers, as in `_multiples`.
    """
    a = alphas[k]
    if a is None or k == 0:
        return a is not None
    prev = alphas[k - 1]
    return prev is not None and all(
        l * x.numerator * y.denominator == k * y.numerator * x.denominator
        for l, x, y in zip(range(1, k + 1), a[1:], prev)
    )


def certify(seq: AppellSequence) -> VerifyReport:
    """Full certificate: monogenicity, ladder, and the coefficient identity.

    A degree passes by structure or is decided, with its witness, on the two
    binary residuals; see the module docstring.

    Sequences with a positive shift are coefficient skeletons of products
    with an extra monogenic factor that is not represented here; only the
    intertwining identity applies to them, so the per-degree checks are
    skipped.
    """
    intertwining = check_intertwining(seq.coeffs)
    results = []
    if seq.shift == 0:
        # c from n, not seq.coeffs: monogenicity is a property of the polynomials alone
        phi = _phi_table(seq.n, seq.m)
        alphas = [_multiples(poly, k, phi) for k, poly in enumerate(seq.polys)]
        for k, poly in enumerate(seq.polys):
            if _passes_by_structure(k, alphas):
                results.append(DegreeCheck(k, True, True))
                continue
            monogenic = _binary_cr(poly, seq.n, 1)
            ladder = AppellPoly(0)  # degree 0 holds vacuously, as in check_appell
            if k:
                ladder = _binary_cr(poly, seq.n, -1) + seq.polys[k - 1] * -k
            # the first nonzero residual gives the witness: monogenic before ladder
            failed = next((r for r in (monogenic, ladder) if not r.is_zero()), None)
            witness = None if failed is None else _binary_witness(failed, seq.n)
            results.append(DegreeCheck(k, monogenic.is_zero(), ladder.is_zero(), witness))
    return VerifyReport(
        n=seq.n,
        family=seq.family,
        results=results,
        intertwining=intertwining,
        shift=seq.shift,
    )

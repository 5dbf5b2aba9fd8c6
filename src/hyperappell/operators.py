"""Hypercomplex differential operators and symbolic certification.

The generalized Cauchy-Riemann operator and its conjugate are

    D  = (d/dx0 + Dv) / 2,        D* = (d/dx0 - Dv) / 2,

with Dv = sum_k e_k d/dx_k the vector derivative.  A polynomial is
monogenic when D annihilates it, and a monogenic sequence is Appell when
D* acts as degree lowering: D* p_k = k p_{k-1}.  certify decides both
exactly on the binary form sum a_ij x0^i v^j, in one pass over the members
that holds only p_k and p_(k-1), first by structure.  With
Dv v^j = Ht[j, j-1] v^(j-1), the x0^(i-1) v^(j-1) coefficient of 2 D p is
i a_(i,j-1) + Ht[j, j-1] a_(i-1,j), so a part of degree l is monogenic
exactly when each term follows from its neighbour,
(l-j+1) a_(l-j+1,j-1) = E_j a_(l-j,j) with E_j = -Ht[j, j-1] != 0: it is
alpha_l phi_l, alpha_l its x0^l coefficient.  As D* phi_l = l phi_(l-1),
the ladder is then l alpha_(k,l) = k alpha_(k-1,l-1).  That costs one
integer comparison per term.  Only a degree where p_k or p_(k-1) fails
this, or the alphas disagree, forms the two binary residuals, at a few
rational operations per term:
distinct x0^i v^j share no expanded monomial, so a zero binary residual
is an exact zero, and a nonzero one gives the witness.  The reference
route, `reference.check_monogenic` and `reference.check_appell`, expands
members into multivariate polynomials instead.  Both report a failing
degree with the same witness monomial, so negative controls produce
usable evidence instead of a bare boolean.

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

from . import appell, clifford  # run on first use: clifford only for a witness
from .rationals import ZERO
from .trimatrix import check_dimension, derivation_entry, transfer_column

HALF = Fraction(1, 2)


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


class VerifyReport(namedtuple("VerifyReport", "n family results intertwining shift family_mismatch",
                              defaults=(None, 0, None))):
    """Per-degree certification results for one sequence, and where it is not its family."""

    __slots__ = ()
    n: int
    family: str
    results: list[DegreeCheck]
    intertwining: bool | None
    shift: int
    family_mismatch: dict | None

    @property
    def ok(self) -> bool:
        if self.intertwining is False or self.family_mismatch:
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
        if self.family_mismatch:
            out["family_mismatch"] = self.family_mismatch
        return out


def check_intertwining(coeffs: appell.CoeffSequence) -> bool:
    """H D_c + D_c Ht = 0 for the degrees 0..m, with n, s and m those of `coeffs`.

    H and Ht each have one nonzero subdiagonal and D_c is diagonal, so the
    left side vanishes off the first subdiagonal, whose entry (i, i-1) is
    i c_(i-1) + c_i Ht[i, i-1].  For even j = i-1 that is the recurrence
    (j+1) c_j = (n+j+2s) c_(j+1), for odd j it is c_j = c_(j+1).
    """
    n, s, c = coeffs.n, coeffs.shift, coeffs.values
    check_dimension(n, s)
    return all(i * c[i - 1] + c[i] * derivation_entry(n, i, s) == 0 for i in range(1, len(c)))


def _binary_cr(poly: appell.AppellPoly, n: int, sign: int) -> appell.AppellPoly:
    """(d/dx0 + sign * Dv) / 2 on the (i, j) terms of poly: Dv v^j = Ht[j, j-1] v^(j-1)."""
    terms: dict[tuple[int, int], Fraction] = {}
    for (i, j), a in poly.terms.items():
        if i:
            terms[(i - 1, j)] = terms.get((i - 1, j), ZERO) + i * a
        if j:
            terms[(i, j - 1)] = terms.get((i, j - 1), ZERO) + sign * derivation_entry(n, j) * a
    return appell.AppellPoly(poly.degree, terms) * HALF


def _binary_witness(residual: appell.AppellPoly, n: int) -> dict:
    """Graded-lex leading term of the residual expanded over x0..xn.

    x0^i v^j expands into monomials of x0-degree i and total degree i+j; the
    first is x0^i xn^j, with coefficient (-1)^(j//2), times e_n for odd j.
    """
    i, j = min(residual.terms, key=lambda ij: (ij[0] + ij[1], ij[0]))
    coeff = residual.terms[(i, j)] * (-1) ** (j // 2)
    blade = clifford.Multivector.blade(n, (n,) if j % 2 else (), coeff)
    return {"exponents": [i] + [0] * (n - 1) + [j], "coeff": blade.to_json()}


def _multiples(poly: appell.AppellPoly, k: int, entries: list[int]):
    """alpha_0..alpha_k with poly = sum_l alpha_l phi_l, or None if poly is no such sum.

    alpha_l is poly's x0^l coefficient.  A part with alpha_l != 0 must hold all
    l+1 keys, each term following from the one before as in the module
    docstring, with E_j = entries[j]; the count refuses any other key, a part
    above k too.  Neighbours are compared cross-multiplied, in integers.
    """
    terms = poly.terms
    alphas = [terms.get((l, 0), ZERO) for l in range(k + 1)]
    count = 0
    for l, alpha in enumerate(alphas):
        if alpha:
            count += l + 1
            p, q = alpha.numerator, alpha.denominator
            for j in range(1, l + 1):
                a = terms.get((l - j, j))
                if a is None:
                    return None
                b, d = a.numerator, a.denominator
                if (l - j + 1) * p * d != entries[j] * b * q:
                    return None
                p, q = b, d
    return alphas if count == len(terms) else None


def _passes_by_structure(k: int, a: list[Fraction] | None, prev: list[Fraction] | None) -> bool:
    """p_k and p_(k-1) are sums of multiples and l alpha_(k,l) = k alpha_(k-1,l-1), l = 1..k.

    `a` and `prev`, their alphas, are compared cross-multiplied, in integers, as in `_multiples`;
    at k = 0, `prev` is [], the alphas of p_(-1) = 0.
    """
    return a is not None and prev is not None and all(
        l * x.numerator * y.denominator == k * y.numerator * x.denominator
        for l, x, y in zip(range(1, k + 1), a[1:], prev)
    )


def certify(seq: appell.AppellSequence, column: list[Fraction] | None = None) -> VerifyReport:
    """Full certificate: monogenicity, ladder, the coefficient identity and the family.

    A degree passes by structure, each term of a part following from its
    neighbour by D's recurrence (l-j+1) a_(l-j+1,j-1) = E_j a_(l-j,j), or is
    decided, with its witness, on the two binary residuals; see the module
    docstring.  Once all of that passes, the sequence is T phi for the T of
    one column t, and as phi_0 = c_0 is the only constant term, p_k(0) =
    c_0 t_k names T: it must be `column`, the family's `transfer_column`
    unless given, or the report names the first k where it is not.

    Sequences with a positive shift are coefficient skeletons of products
    with an extra monogenic factor that is not represented here; only the
    intertwining identity applies to them, so the per-degree checks are
    skipped.
    """
    intertwining = check_intertwining(seq.coeffs)
    results, constants, mismatch = [], [], None
    if seq.shift == 0:
        # D from n, not seq.coeffs: monogenicity is a property of the polynomials alone
        entries = [-derivation_entry(seq.n, j) for j in range(seq.m + 1)]
        prev, prev_alphas = None, []
        for k, poly in enumerate(seq.members()):
            constants.append(poly.coefficient(0, 0))
            alphas = _multiples(poly, k, entries)
            if _passes_by_structure(k, alphas, prev_alphas):
                results.append(DegreeCheck(k, True, True))
            else:
                monogenic = _binary_cr(poly, seq.n, 1)
                # degree 0 holds vacuously, as in check_appell
                ladder = _binary_cr(poly, seq.n, -1) + prev * -k if k else appell.AppellPoly(0)
                # the first nonzero residual gives the witness: monogenic before ladder
                failed = next((r for r in (monogenic, ladder) if not r.is_zero()), None)
                witness = None if failed is None else _binary_witness(failed, seq.n)
                results.append(DegreeCheck(k, monogenic.is_zero(), ladder.is_zero(), witness))
            prev, prev_alphas = poly, alphas
        if intertwining and all(r.passed for r in results):
            c0 = seq.coeffs.values[0]
            column = transfer_column(seq.family, seq.m, seq.lam) if column is None else column
            mismatch = next(({"k": k, "expected": str(c0 * t), "found": str(a)}
                             for k, (t, a) in enumerate(zip(column, constants)) if c0 * t != a),
                            None)
    return VerifyReport(seq.n, seq.family, results, intertwining, seq.shift, mismatch)

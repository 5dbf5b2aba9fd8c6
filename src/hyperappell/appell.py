"""Construction of hypercomplex Appell polynomial sequences.

The basic sequence of degree k polynomials has the binary form

    phi_k(x) = sum_{j=0..k} C(k,j) c_j  x0^(k-j) v^j,

where x = x0 + v splits a paravector into scalar and vector part and the
diagonal coefficients c_j are fixed (up to the free choice of c_0) by the
requirement that every phi_k lie in the kernel of the generalized
Cauchy-Riemann operator.  The working constraint is the recurrence

    c_{2k} = c_{2k-1},      c_{2k-1} = (2k-1) / (n + 2k + 2s - 2) * c_{2k-2},

that is c_k = c_(k-1) k / -Ht[k, k-1] with Ht the derivation matrix.  Its
closed form is c_{2k} = (2k-1)!! (n+2s-2)!! / (n+2k+2s-2)!! * c_0
(s = 0 is the plain case; s > 0 belongs to sequences carrying an opaque
monogenic factor of degree s and is kept at the coefficient level only).

Vectorized, the whole truncated sequence is exp(H x0) D_c xi(v) with H the
creation matrix, D_c the diagonal of the c_j and xi(v) the column of vector
powers; classical families (Bernoulli, Euler, Frobenius-Euler, Hermite)
arise by applying their transfer matrices f(H) to the basic sequence.
`transferred_terms` computes T phi block by block, in integer pairs, from the
first column of T = f(H); `family_members` yields its members one at a time,
each an `AppellPoly` holding {(i, j): (num, den)}, the form `certify` and
`eval` read (`AppellPoly.pairs`), with one row of T and the members of phi it
reads, never all of T phi.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from . import clifford, polynomials  # run on first use: no command runs them
from .rationals import ONE, ZERO
from .trimatrix import (FAMILIES, appell_rows, check_dimension, check_lambda, derivation_entry,
                        transfer_column)


def check_header(family: str, lam: Fraction | None = None, shift: int = 0) -> None:
    """The header rules of a built or loaded sequence; `coefficient_sequence` checks n, s, c0."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if shift > 0 and family != "canonical":
        raise ValueError("shifted coefficients are only defined for the canonical family")
    check_lambda(family, lam)


class CoeffSequence(namedtuple("CoeffSequence", "n shift values")):
    """Diagonal coefficients c_0..c_m for dimension n and factor degree s.

    The builder enforces the defining constraint; constructing instances
    directly bypasses it (used deliberately for negative controls).
    """

    __slots__ = ()
    n: int
    shift: int
    values: tuple[Fraction, ...]

    @property
    def m(self) -> int:
        return len(self.values) - 1

    def with_value(self, k: int, value) -> "CoeffSequence":
        """Copy with entry k replaced; does not re-impose the constraint."""
        values = list(self.values)
        values[k] = Fraction(value)
        return CoeffSequence(self.n, self.shift, tuple(values))


def coefficient_sequence(
    n: int, m: int, c0: Fraction = ONE, shift: int = 0
) -> CoeffSequence:
    """Coefficients c_0..c_m making the degree ladder monogenic.

    Built by the recurrence c_k = c_(k-1) k / -Ht[k, k-1] on the entries of
    `trimatrix.derivation_entry`, which covers n = 1 (all entries equal c_0,
    the complex case) and n > 1 uniformly; the closed double-factorial
    form, `reference.closed_form_coefficient`, gives the same values.
    """
    check_dimension(n, shift)
    if m < 0:
        raise ValueError("maximum degree must be nonnegative")
    c0 = Fraction(c0)
    if not c0:
        raise ValueError("c0 must be nonzero: the diagonal matrix must be invertible")
    values = [c0]
    for k in range(1, m + 1):
        values.append(values[-1] * Fraction(k, -derivation_entry(n, k, shift)))
    return CoeffSequence(n, shift, tuple(values))


class AppellPoly:
    """One sequence member in binary form.

    Held as `pairs`, {(i, j): (num, den)} with num/den != 0 in lowest terms, den > 0, the
    coefficient of x0^i v^j, v the vector part of the argument; `terms` is a Fraction view.
    Members of the basic sequence are homogeneous (i + j = degree for every term); transfer
    matrices mix degrees, so lower-order terms appear for the classical families.
    """

    __slots__ = ("degree", "_pairs")

    def __init__(self, degree: int, terms: Mapping[tuple[int, int], Fraction] | None = None):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        pairs: dict[tuple[int, int], tuple[int, int]] = {}
        for (i, j), coeff in (terms or {}).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in term ({i}, {j})")
            value = coeff if type(coeff) is Fraction else Fraction(coeff)
            if value:
                pairs[(i, j)] = (value.numerator, value.denominator)
        self.degree, self._pairs = degree, pairs

    @classmethod
    def of_pairs(cls, degree: int, pairs: dict[tuple[int, int], tuple[int, int]]) -> "AppellPoly":
        """The member of these pairs, held without a copy; each in lowest terms, den > 0, not 0."""
        poly = object.__new__(cls)
        poly.degree, poly._pairs = degree, pairs
        return poly

    def pairs(self) -> dict[tuple[int, int], tuple[int, int]]:
        """The member as held, {(i, j): (num, den)}; not a copy."""
        return self._pairs

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        """The member as {(i, j): Fraction}, a new dict on each access."""
        return {key: Fraction(*pair) for key, pair in self._pairs.items()}

    def is_zero(self) -> bool:
        return not self._pairs

    def __add__(self, other):
        if not isinstance(other, AppellPoly):
            return NotImplemented
        out = self.terms
        for key, coeff in other.terms.items():
            out[key] = out.get(key, ZERO) + coeff
        return AppellPoly(max(self.degree, other.degree), out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return AppellPoly(self.degree, {key: c * other for key, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, AppellPoly):
            return NotImplemented
        return self.degree == other.degree and self._pairs == other._pairs

    def __hash__(self):
        return hash((self.degree, frozenset(self._pairs.items())))

    def sorted_terms(self) -> list[tuple[tuple[int, int], Fraction]]:
        """Terms ordered by total degree, then vector exponent."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0][1]))

    def __str__(self) -> str:
        from .seqfile import member_text  # the text `gen --format pretty` prints

        return member_text((key, a.numerator, a.denominator) for key, a in self.sorted_terms())

    def __repr__(self) -> str:
        return f"AppellPoly(degree={self.degree}, {self})"


class AppellSequence:
    """Degrees 0..m of an Appell sequence over Cl(0,n), in binary form; n, s and m live in coeffs.

    `polys` is any iterable of the AppellPolys in degree order, such as a list or
    `family_members`; `certify`, `evaluate.binary_values` and `to_json` each draw it
    once, through `members`.
    """

    def __init__(self, family: str, polys: Iterable[AppellPoly], coeffs: CoeffSequence,
                 lam: Fraction | None = None):
        self.family = family
        self.polys = polys
        self.coeffs = coeffs
        self.lam = lam

    def __eq__(self, other):
        if not isinstance(other, AppellSequence):
            return NotImplemented
        return (self.family, self.polys, self.coeffs, self.lam) == (
            other.family, other.polys, other.coeffs, other.lam
        )

    def __repr__(self) -> str:
        return (
            f"AppellSequence(family={self.family!r}, polys={self.polys!r},"
            f" coeffs={self.coeffs!r}, lam={self.lam!r})"
        )

    @property
    def n(self) -> int:
        return self.coeffs.n

    @property
    def shift(self) -> int:
        return self.coeffs.shift

    @property
    def m(self) -> int:
        return self.coeffs.m

    def members(self) -> Iterator[AppellPoly]:
        """p_0..p_m, refusing (ValueError) a stream that ends early or runs on."""
        k = -1
        for k, poly in enumerate(self.polys):
            if k > self.m:
                raise ValueError(f"member {k} is past the degree m = {self.m} of the coefficients")
            yield poly
        if k < self.m:
            raise ValueError(f"member {k + 1} is missing: the members end before m = {self.m}")

    def to_json(self) -> dict:
        """The `gen` JSON of this sequence; `seqfile.from_json` loads it back."""
        from .seqfile import sequence_json

        members = (sorted(poly.pairs().items(), key=lambda kv: (sum(kv[0]), kv[0][1]))
                   for poly in self.members())
        return sequence_json(self.family, self.coeffs, self.lam, members)


def transferred_terms(column: list[Fraction], coeffs: CoeffSequence) -> Iterator[Iterator]:
    """Members (T phi)_k, T = f(H) of the column t_0..t_m, each a generator of its blocks.

    Block l of member k, drawn at each t_(k-l) != 0 in increasing l, is
    C(k,l) t_(k-l) phi_l: the list of ((i, j), num, den) with i + j = l and
    num/den = C(k,l) t_(k-l) * C(l,j) c_j in lowest terms, den > 0, made from
    the integer pairs of `appell_rows`: row k of T, and row l of the Appell
    matrix of c, whose entry i is phi_l's x0^i v^(l-i) coefficient.  phi_l
    is homogeneous of degree l, so walking l, then j, upwards is `sorted_terms`
    order.  With `reach` the last d of a nonzero t_d, only phi_(k-reach)..phi_k
    and one row of T are held: one member of phi for the canonical column, all
    of them for a transfer column, which reaches m or m-1.  Each drawn row keeps
    its own phi lists, so its generator stays valid as later rows are drawn.
    Member k has degree k.
    """
    gcd = math.gcd
    reach = max((d for d, t in enumerate(column) if t), default=0)
    phi = deque(maxlen=reach + 1)  # phi_(k-reach)..phi_k: row k reads no older member
    for k, (t_row, c_row) in enumerate(zip(appell_rows(column), appell_rows(coeffs.values))):
        phi.append([((i, k - i), *c_row[i]) for i in range(k, -1, -1) if c_row[i][0]])
        # row k of T at the nonzero t only, in the reach window: a canonical row holds one entry
        row = [(*t_row[l], phi[l - k - 1]) for l in range(max(0, k - reach), k + 1) if t_row[l][0]]
        # each factor's numerator cancelled by the other's denominator, as Fraction multiplies:
        # two gcds of the factors cost less than one of the products once the digits grow
        yield ([(key, (tn // g) * (an // h), (td // h) * (ad // g))
                for key, an, ad in terms for g in [gcd(tn, ad)] for h in [gcd(an, td)]]
               for tn, td, terms in row)


def family_members(column: list[Fraction], coeffs: CoeffSequence) -> Iterator[AppellPoly]:
    """The members of `transferred_terms(column, coeffs)`, each drawn as an AppellPoly."""
    for k, member in enumerate(transferred_terms(column, coeffs)):
        yield AppellPoly.of_pairs(k, {key: (n, d) for block in member for key, n, d in block})


def build_phi(coeffs: CoeffSequence) -> AppellSequence:
    """Basic sequence phi_k = sum_j C(k,j) c_j x0^(k-j) v^j for k = 0..coeffs.m."""
    polys = list(family_members(transfer_column("canonical", coeffs.m), coeffs))
    return AppellSequence(family="canonical", polys=polys, coeffs=coeffs)


def family_terms(
    n: int,
    m: int,
    family: str = "canonical",
    c0: Fraction = ONE,
    lam: Fraction | None = None,
    shift: int = 0,
):
    """(family, coeffs, lam, column) of a named sequence, with the series column t_0..t_m.

    The members are `transferred_terms` or `family_members` of (column, coeffs),
    drawn lazily as often as a caller needs.  The header rules
    are `check_header`'s, the same a loaded file passes.  Every check runs
    here, before the first member is drawn.
    """
    check_header(family, lam, shift)
    coeffs = coefficient_sequence(n, m, c0=c0, shift=shift)
    lam = None if lam is None else Fraction(lam)
    return family, coeffs, lam, transfer_column(family, m, lam)


def build_family(
    n: int,
    m: int,
    family: str = "canonical",
    c0: Fraction = ONE,
    lam: Fraction | None = None,
    shift: int = 0,
) -> AppellSequence:
    """Construct a named sequence: the basic one, or its transfer T phi.

    `family_terms`, materialized.  `reference.TriMatrix.apply` on
    `build_phi`'s members is the reference for T phi.
    """
    family, coeffs, lam, column = family_terms(n, m, family, c0, lam, shift)
    return AppellSequence(family, list(family_members(column, coeffs)), coeffs, lam)


def _weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def vector_power_expansion(n: int, j: int) -> polynomials.CliffordPoly:
    """The j-th power of the vector variable as an explicit polynomial.

    Even powers expand (-(x1^2 + ... + xn^2))^(j/2) multinomially into
    scalar monomials; odd powers carry one extra factor x_k e_k.  Every
    caller gets the same cached polynomial, so its terms are read-only.
    """
    check_dimension(n)
    if j < 0:
        raise ValueError("exponent must be nonnegative")
    half = j // 2
    sign = ONE if half % 2 == 0 else -ONE
    # Distinct (combo, k) give distinct monomials: k is the one odd exponent.
    terms: dict[tuple[int, ...], clifford.Multivector] = {}
    for combo in _weak_compositions(half, n):
        weight = math.factorial(half)
        for part in combo:
            weight //= math.factorial(part)
        coeff = sign * weight
        exps_vec = tuple(2 * b for b in combo)
        if j % 2 == 0:
            terms[(0,) + exps_vec] = clifford.Multivector.scalar(n, coeff)
        else:
            for k in range(1, n + 1):
                exps = (0,) + tuple(
                    e + (1 if idx == k else 0)
                    for idx, e in enumerate(exps_vec, start=1)
                )
                terms[exps] = clifford.Multivector.generator(n, k) * coeff
    poly = polynomials.CliffordPoly(n, terms)
    poly.terms = MappingProxyType(poly.terms)
    return poly

"""Construction of hypercomplex Appell polynomial sequences.

The basic sequence of degree k polynomials has the binary form

    phi_k(x) = sum_{j=0..k} C(k,j) c_j  x0^(k-j) v^j,

where x = x0 + v splits a paravector into scalar and vector part and the
diagonal coefficients c_j are fixed (up to the free choice of c_0) by the
requirement that every phi_k lie in the kernel of the generalized
Cauchy-Riemann operator.  The working constraint is the recurrence

    c_{2k} = c_{2k-1},      c_{2k-1} = (2k-1) / (n + 2k + 2s - 2) * c_{2k-2},

whose closed form is c_{2k} = (2k-1)!! (n+2s-2)!! / (n+2k+2s-2)!! * c_0
(s = 0 is the plain case; s > 0 belongs to sequences carrying an opaque
monogenic factor of degree s and is kept at the coefficient level only).

Vectorized, the whole truncated sequence is exp(H x0) D_c xi(v) with H the
creation matrix, D_c the diagonal of the c_j and xi(v) the column of vector
powers; classical families (Bernoulli, Euler, Frobenius-Euler, Hermite)
arise by applying their transfer matrices f(H) to the basic sequence.
`transferred_terms` computes T phi term by term from the first column of
T = f(H), so a caller that writes each term as it is drawn holds O(m^2)
values, not the O(m^3) terms of the sequence.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator, Mapping
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .clifford import Multivector, Paravector
from .polynomials import CliffordPoly
from .rationals import ONE, ZERO, read_rational
from .trimatrix import FAMILIES, appell_rows, check_dimension, check_lambda, transfer_column


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


def coefficient_sequence(
    n: int, m: int, c0: Fraction = ONE, shift: int = 0
) -> CoeffSequence:
    """Coefficients c_0..c_m making the degree ladder monogenic.

    Built by the recurrence, which covers n = 1 (all entries equal c_0,
    the complex case) and n > 1 uniformly; the closed form above gives the
    same values and is the tests' reference.
    """
    check_dimension(n, shift)
    if m < 0:
        raise ValueError("maximum degree must be nonnegative")
    c0 = Fraction(c0)
    if not c0:
        raise ValueError("c0 must be nonzero: the diagonal matrix must be invertible")
    values = [c0]
    for k in range(1, m + 1):
        if k % 2 == 1:
            # k = 2r-1: denominator n + 2r + 2s - 2 = n + k + 2s - 1
            values.append(values[-1] * Fraction(k, n + k + 2 * shift - 1))
        else:
            values.append(values[-1])
    return CoeffSequence(n, shift, tuple(values))


class AppellPoly:
    """One sequence member in binary form.

    Terms map (i, j) to the rational coefficient of x0^i v^j, where v is
    the vector part of the paravector argument.  Members of the basic
    sequence are homogeneous (i + j = degree for every term); transfer
    matrices mix degrees, so lower-order terms appear for the classical
    families.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: Mapping[tuple[int, int], Fraction] | None = None):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.degree = degree
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (i, j), coeff in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in term ({i}, {j})")
                value = Fraction(coeff)
                if value:
                    clean[(i, j)] = value
        self.terms = clean

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.terms.get((i, j), ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, AppellPoly):
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            total = out.get(key, ZERO) + coeff
            if total:
                out[key] = total
            else:
                out.pop(key, None)
        result = AppellPoly(max(self.degree, other.degree))
        result.terms = out
        return result

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            scale = Fraction(other)
            result = AppellPoly(self.degree)
            if scale:
                result.terms = {k: c * scale for k, c in self.terms.items()}
            return result
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, AppellPoly):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[tuple[int, int], Fraction]]:
        """Terms ordered by total degree, then vector exponent."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0][1]))

    def __str__(self) -> str:
        return member_text(self.sorted_terms())

    def __repr__(self) -> str:
        return f"AppellPoly(degree={self.degree}, {self})"


def member_text(terms) -> str:
    """A member as text, from its ((i, j), a) in `sorted_terms` order; "0" when there are none."""
    pieces = []
    for (i, j), a in terms:
        factors = [str(abs(a))] if abs(a) != 1 or i == j == 0 else []
        if i:
            factors.append("x0" if i == 1 else f"x0^{i}")
        if j:
            factors.append("xv" if j == 1 else f"xv^{j}")
        pieces.append((" - " if a < 0 else " + ") if pieces else ("-" if a < 0 else ""))
        pieces.append("*".join(factors))
    return "".join(pieces) or "0"


class AppellSequence:
    """Degrees 0..m of an Appell sequence over Cl(0,n), in binary form; n and s live in coeffs."""

    def __init__(
        self,
        family: str,
        polys: list[AppellPoly],
        coeffs: CoeffSequence,
        lam: Fraction | None = None,
    ):
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
        return len(self.polys) - 1

    def eval_at(self, x: Paravector) -> list[Multivector]:
        if x.n != self.n:
            raise ValueError(f"point has dimension {x.n}, sequence has {self.n}")
        return [eval_poly(p, x) for p in self.polys]

    def restrict_real(self) -> list[list[Fraction]]:
        """Set the vector part to zero; ascending x0 coefficients per degree."""
        return [restrict_poly(p) for p in self.polys]

    def to_json(self) -> dict:
        members = (poly.sorted_terms() for poly in self.polys)
        return sequence_json(self.family, self.coeffs, self.lam, members)

    @classmethod
    def from_json(cls, payload: dict) -> "AppellSequence":
        """Load a `to_json` payload, refusing (ValueError) one no builder could produce.

        The header must pass `check_header`, c_0..c_m be those of n, s and c_0,
        and a shifted file, which `certify` checks only by intertwining, hold
        exactly `build_phi(coeffs)`.
        """
        n = _json_get(payload, "n", int)
        shift = _json_get(payload, "s", int, default=0)
        family = _json_get(payload, "family", str)
        lam = payload.get("lambda")
        lam = None if lam is None else read_rational(lam, "lambda")
        check_header(family, lam, shift)
        values = tuple(read_rational(c, "coefficient") for c in _json_get(payload, "coeffs", list))
        polys = []
        entries = _json_get(payload, "polys", list)
        for entry in sorted(entries, key=lambda e: _json_get(e, "k", int)):
            k = entry["k"]
            if k != len(polys):
                raise ValueError(f"polynomial degrees must cover 0..m, missing {len(polys)}")
            terms = {}
            for term in _json_get(entry, "terms", list):
                key = (_json_get(term, "i", int), _json_get(term, "j", int))
                if key[0] + key[1] > k:
                    raise ValueError(f"term x0^{key[0]} v^{key[1]} exceeds degree {k}")
                a = read_rational(term.get("a"), "term coefficient")
                terms[key] = terms.get(key, ZERO) + a
            polys.append(AppellPoly(k, terms))
        if not polys:
            raise ValueError("sequence must contain at least degree 0")
        m = len(polys) - 1
        if _json_get(payload, "m", int) != m:
            raise ValueError(f"m is {payload['m']}, but the polynomials cover degrees 0..{m}")
        coeffs = coefficient_sequence(n, m, c0=values[0] if values else ONE, shift=shift)
        if coeffs.values != values:
            raise ValueError(f"coefficients are not c_0..c_{m} of n={n}, s={shift}")
        if shift and polys != build_phi(coeffs).polys:
            raise ValueError(f"a file with s={shift} must hold build_phi of its coefficients")
        return cls(family=family, polys=polys, coeffs=coeffs, lam=lam)


_JSON_NAMES = {list: "a list", str: "a string", int: "an integer"}


def _json_get(node, key: str, kind: type, default=None):
    """node[key] of exactly type `kind`, so no bool or float passes as an integer."""
    if type(node) is not dict:
        raise ValueError(f"expected an object holding {key!r}, got {type(node).__name__}")
    if key not in node and default is None:
        raise ValueError(f"missing key {key!r}")
    value = node.get(key, default)
    if type(value) is not kind:
        raise ValueError(f"{key} must be {_JSON_NAMES[kind]}, got {type(value).__name__}")
    return value


def sequence_json(
    family: str, coeffs: CoeffSequence, lam: Fraction | None, members, array=list
) -> dict:
    """The one JSON layout of a sequence, built or streamed.

    `members` yields, for k = 0..m, member k's ((i, j), a) in `sorted_terms`
    order.  `array=iter` leaves the member and term arrays lazy, so a
    streaming writer draws one term at a time.
    """
    return {
        "n": coeffs.n,
        "family": family,
        "lambda": None if lam is None else str(lam),
        "s": coeffs.shift,
        "m": coeffs.m,
        "coeffs": [str(c) for c in coeffs.values],
        "polys": array(
            {"k": k, "terms": array({"i": i, "j": j, "a": str(a)} for (i, j), a in terms)}
            for k, terms in enumerate(members)
        ),
    }


def transferred_terms(column: list[Fraction], coeffs: CoeffSequence) -> Iterator[Iterator]:
    """Members (T phi)_k, T = f(H) of the column t_0..t_m, as generators of ((i, j), a).

    phi_l is homogeneous of degree l, so x0^i v^j occurs only in phi_(i+j):
    row k of T scales whole members and no two products share a key, and
    walking l, then j, upwards is `sorted_terms` order.  Each
    a = C(k,l) t_(k-l) * C(l,j) c_j; only phi's terms and one row of T are
    held, O(m^2) in all.  Member k has degree k, since t_0 != 0.
    """
    values = coeffs.values
    phi = [
        [((l - j, j), math.comb(l, j) * values[j]) for j in range(l + 1) if values[j]]
        for l in range(coeffs.m + 1)
    ]
    for row in appell_rows(column):
        yield ((key, t * a) for l, t in enumerate(row) if t for key, a in phi[l])


def _members(terms) -> list[AppellPoly]:
    """The members of `transferred_terms`, materialized."""
    polys = []
    for k, member in enumerate(terms):
        poly = AppellPoly(k)
        poly.terms = dict(member)
        polys.append(poly)
    return polys


def build_phi(coeffs: CoeffSequence) -> AppellSequence:
    """Basic sequence phi_k = sum_j C(k,j) c_j x0^(k-j) v^j for k = 0..coeffs.m."""
    polys = _members(transferred_terms(transfer_column("canonical", coeffs.m), coeffs))
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

    The members are `transferred_terms(column, coeffs)`, drawn lazily as
    often as a caller needs.  The header rules are `check_header`'s, the
    same a loaded file passes.  Every check runs here, before the first
    member is drawn.
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

    `family_terms`, materialized.  `TriMatrix.apply` on `build_phi`'s
    members is the reference for T phi.
    """
    family, coeffs, lam, column = family_terms(n, m, family, c0, lam, shift)
    return AppellSequence(family, _members(transferred_terms(column, coeffs)), coeffs, lam)


def _weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def vector_power_expansion(n: int, j: int) -> CliffordPoly:
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
    terms: dict[tuple[int, ...], Multivector] = {}
    for combo in _weak_compositions(half, n):
        weight = math.factorial(half)
        for part in combo:
            weight //= math.factorial(part)
        coeff = sign * weight
        exps_vec = tuple(2 * b for b in combo)
        if j % 2 == 0:
            terms[(0,) + exps_vec] = Multivector.scalar(n, coeff)
        else:
            for k in range(1, n + 1):
                exps = (0,) + tuple(
                    e + (1 if idx == k else 0)
                    for idx, e in enumerate(exps_vec, start=1)
                )
                terms[exps] = Multivector.generator(n, k) * coeff
    poly = CliffordPoly(n, terms)
    poly.terms = MappingProxyType(poly.terms)
    return poly


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


def eval_poly(poly: AppellPoly, x: Paravector) -> Multivector:
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


def _paravector_value(x: Paravector, scalar: Fraction, vec_coeff: Fraction) -> Multivector:
    """scalar + vec_coeff * v as a multivector; the constructor drops zero terms."""
    terms = {1 << (k - 1): vec_coeff * v for k, v in enumerate(x.vec, start=1)}
    terms[0] = scalar
    return Multivector(x.n, terms)


def restrict_poly(poly: AppellPoly) -> list[Fraction]:
    """Coefficients in x0 (ascending) after setting the vector part to zero."""
    degree = max((i for (i, j) in poly.terms if j == 0), default=0)
    out = [ZERO] * (degree + 1)
    for (i, j), a in poly.terms.items():
        if j == 0:
            out[i] = a
    return out


def exp_truncated(x: Paravector, order: int) -> Multivector:
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
    c = coefficient_sequence(x.n, order).values
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

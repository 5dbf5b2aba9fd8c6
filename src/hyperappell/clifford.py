"""Arithmetic in the universal Clifford algebra Cl(0,n).

The algebra is generated over the rationals by e_1, ..., e_n subject to

    e_i e_j + e_j e_i = -2 delta_ij,

so each generator squares to -1 and distinct generators anticommute.  A
basis blade e_A = e_{h_1} ... e_{h_r} (indices strictly ascending) is
encoded as a bitmask over the generators: bit k-1 set means e_k occurs.
The empty mask is the scalar unit.  Multivectors are kept sparse: only
nonzero components are stored, which is what the polynomial work needs
since it populates grades 0 and 1 almost exclusively.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction

from .rationals import ONE, ZERO, parse_rational

BladeMask = int


def _check_mask(mask: int, n: int) -> None:
    if mask < 0 or mask >> n:
        raise ValueError(f"blade mask {mask:#b} has generators outside 1..{n}")


def mask_from_indices(indices: Iterable[int], n: int) -> BladeMask:
    """Bitmask for the blade with the given ascending generator indices."""
    mask = 0
    for k in indices:
        if not 1 <= k <= n:
            raise ValueError(f"generator index {k} outside 1..{n}")
        bit = 1 << (k - 1)
        if mask & bit:
            raise ValueError(f"repeated generator index {k} in blade")
        mask |= bit
    return mask


def mask_to_indices(mask: BladeMask) -> tuple[int, ...]:
    """Ascending generator indices of a blade mask."""
    return tuple(k + 1 for k in range(mask.bit_length()) if mask >> k & 1)


def blade_product(a: BladeMask, b: BladeMask, n: int) -> tuple[int, BladeMask]:
    """Product of basis blades: (sign, mask) with e_A e_B = sign * e_(A xor B).

    The sign counts the transpositions needed to interleave the two index
    lists into ascending order, plus one factor -1 per shared generator
    (e_k e_k = -1).
    """
    _check_mask(a, n)
    _check_mask(b, n)
    swaps = 0
    rest = a >> 1
    while rest:
        swaps += (rest & b).bit_count()
        rest >>= 1
    sign = -1 if swaps & 1 else 1
    if (a & b).bit_count() & 1:
        sign = -sign
    return sign, a ^ b


class Multivector:
    """Sparse element of Cl(0,n) with exact rational components."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[BladeMask, Fraction] | None = None):
        if n < 0:
            raise ValueError("dimension must be nonnegative")
        self.n = n
        clean: dict[BladeMask, Fraction] = {}
        if terms:
            for mask, coeff in terms.items():
                _check_mask(mask, n)
                value = Fraction(coeff)
                if value:
                    clean[mask] = value
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Multivector":
        return cls(n)

    @classmethod
    def scalar(cls, n: int, value) -> "Multivector":
        return cls(n, {0: Fraction(value)})

    @classmethod
    def generator(cls, n: int, k: int) -> "Multivector":
        """The basis vector e_k."""
        if not 1 <= k <= n:
            raise ValueError(f"generator index {k} outside 1..{n}")
        return cls(n, {1 << (k - 1): ONE})

    @classmethod
    def blade(cls, n: int, indices: Iterable[int], coeff=ONE) -> "Multivector":
        return cls(n, {mask_from_indices(indices, n): Fraction(coeff)})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def scalar_part(self) -> Fraction:
        return self.terms.get(0, ZERO)

    def coefficient(self, indices: Iterable[int]) -> Fraction:
        return self.terms.get(mask_from_indices(indices, self.n), ZERO)

    def conjugate(self) -> "Multivector":
        """Clifford conjugation: each e_k maps to -e_k and products reverse.

        On a grade-r blade this is the sign (-1)^(r(r+1)/2); it is extended
        linearly and is an anti-automorphism of the algebra.
        """
        out: dict[BladeMask, Fraction] = {}
        for mask, coeff in self.terms.items():
            r = mask.bit_count()
            if (r * (r + 1) // 2) & 1:
                coeff = -coeff
            out[mask] = coeff
        return Multivector(self.n, out)

    # -- ring operations ----------------------------------------------

    def _require_same_n(self, other: "Multivector") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: Cl(0,{self.n}) vs Cl(0,{other.n})")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Multivector.scalar(self.n, other)
        if not isinstance(other, Multivector):
            return NotImplemented
        self._require_same_n(other)
        out = dict(self.terms)
        for mask, coeff in other.terms.items():
            total = out.get(mask, ZERO) + coeff
            if total:
                out[mask] = total
            else:
                out.pop(mask, None)
        result = Multivector(self.n)
        result.terms = out
        return result

    __radd__ = __add__

    def __neg__(self):
        result = Multivector(self.n)
        result.terms = {mask: -coeff for mask, coeff in self.terms.items()}
        return result

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Multivector.scalar(self.n, other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            scale = Fraction(other)
            result = Multivector(self.n)
            if scale:
                result.terms = {m: c * scale for m, c in self.terms.items()}
            return result
        if not isinstance(other, Multivector):
            return NotImplemented
        self._require_same_n(other)
        acc: dict[BladeMask, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                sign, mask = blade_product(ma, mb, self.n)
                total = acc.get(mask, ZERO) + sign * ca * cb
                if total:
                    acc[mask] = total
                else:
                    acc.pop(mask, None)
        result = Multivector(self.n)
        result.terms = acc
        return result

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("only nonnegative powers are defined")
        result = Multivector.scalar(self.n, ONE)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Multivector.scalar(self.n, other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- presentation ---------------------------------------------------

    def sorted_terms(self) -> list[tuple[BladeMask, Fraction]]:
        """Terms in graded order (grade, then mask), for stable output."""
        return sorted(self.terms.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mask, coeff in self.sorted_terms():
            blade = "e" + "".join(str(k) for k in mask_to_indices(mask)) if mask else ""
            if blade:
                body = blade if abs(coeff) == 1 else f"{abs(coeff)}*{blade}"
            else:
                body = str(abs(coeff))
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Multivector(n={self.n}, {self})"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"blade": list(mask_to_indices(mask)), "coeff": str(coeff)}
                for mask, coeff in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Multivector":
        n = int(payload["n"])
        terms: dict[BladeMask, Fraction] = {}
        for item in payload["terms"]:
            mask = mask_from_indices(item["blade"], n)
            terms[mask] = terms.get(mask, ZERO) + parse_rational(item["coeff"])
        return cls(n, terms)


class Paravector(namedtuple("Paravector", "x0 vec")):
    """Element x0 + x1 e_1 + ... + xn e_n of the paravector space in Cl(0,n)."""

    __slots__ = ()
    x0: Fraction
    vec: tuple[Fraction, ...]

    def __new__(cls, x0, vec):
        return super().__new__(cls, Fraction(x0), tuple(Fraction(v) for v in vec))

    @property
    def n(self) -> int:
        return len(self.vec)

    def conjugate(self) -> "Paravector":
        return Paravector(self.x0, tuple(-v for v in self.vec))

    def vector_norm_sq(self) -> Fraction:
        return sum((v * v for v in self.vec), ZERO)

    def scaled(self, t) -> "Paravector":
        t = Fraction(t)
        return Paravector(self.x0 * t, tuple(v * t for v in self.vec))

    def to_multivector(self) -> Multivector:
        terms: dict[BladeMask, Fraction] = {0: self.x0}
        for k, v in enumerate(self.vec, start=1):
            terms[1 << (k - 1)] = v
        return Multivector(self.n, terms)

    def vector_to_multivector(self) -> Multivector:
        """The vector part x1 e_1 + ... + xn e_n as a multivector."""
        return Multivector(
            self.n, {1 << (k - 1): v for k, v in enumerate(self.vec, start=1)}
        )


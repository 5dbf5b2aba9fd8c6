"""Multivariate polynomials in x0, ..., xn with multivector coefficients.

This is the representation the symbolic differential operators act on.  A
polynomial is a sparse map from exponent multi-indices (a0, a1, ..., an)
to Cl(0,n) coefficients; zero coefficients are pruned so that equality of
polynomials is equality of term maps, and "is zero" is an exact check with
no tolerance anywhere.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction

from .clifford import Multivector
from .rationals import ONE, ZERO

ExponentIndex = tuple[int, ...]


class CliffordPoly:
    """Polynomial in the n+1 real variables x0..xn over Cl(0,n)."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[ExponentIndex, Multivector] | None = None):
        if n < 0:
            raise ValueError("dimension must be nonnegative")
        self.n = n
        clean: dict[ExponentIndex, Multivector] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != n + 1:
                    raise ValueError(
                        f"multi-index {exps} needs {n + 1} entries for dimension {n}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if coeff.n != n:
                    raise ValueError("coefficient dimension does not match polynomial")
                if not coeff.is_zero():
                    clean[tuple(exps)] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, n: int) -> "CliffordPoly":
        return cls(n)

    @classmethod
    def monomial(cls, n: int, exps: Sequence[int], coeff: Multivector) -> "CliffordPoly":
        return cls(n, {tuple(exps): coeff})

    @classmethod
    def constant(cls, n: int, value) -> "CliffordPoly":
        return cls(n, {(0,) * (n + 1): Multivector.scalar(n, value)})

    @classmethod
    def variable(cls, n: int, index: int) -> "CliffordPoly":
        """The coordinate polynomial x_index (a scalar-valued monomial)."""
        exps = [0] * (n + 1)
        exps[index] = 1
        return cls(n, {tuple(exps): Multivector.scalar(n, ONE)})

    def is_zero(self) -> bool:
        return not self.terms

    def _require_same_n(self, other: "CliffordPoly") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, CliffordPoly):
            return NotImplemented
        self._require_same_n(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            total = out.get(exps)
            total = coeff if total is None else total + coeff
            if total.is_zero():
                out.pop(exps, None)
            else:
                out[exps] = total
        result = CliffordPoly(self.n)
        result.terms = out
        return result

    def __neg__(self):
        result = CliffordPoly(self.n)
        result.terms = {exps: -coeff for exps, coeff in self.terms.items()}
        return result

    def __sub__(self, other):
        if not isinstance(other, CliffordPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            scale = Fraction(other)
            result = CliffordPoly(self.n)
            if scale:
                result.terms = {e: c * scale for e, c in self.terms.items()}
            return result
        return NotImplemented

    __rmul__ = __mul__

    def map_coefficients(self, fn) -> "CliffordPoly":
        """Apply fn to every multivector coefficient (pruning zeros)."""
        return CliffordPoly(self.n, {e: fn(c) for e, c in self.terms.items()})

    def partial(self, index: int) -> "CliffordPoly":
        """Formal partial derivative with respect to x_index."""
        if not 0 <= index <= self.n:
            raise ValueError(f"variable index {index} outside 0..{self.n}")
        out: dict[ExponentIndex, Multivector] = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e:
                lowered = exps[:index] + (e - 1,) + exps[index + 1 :]
                contrib = coeff * Fraction(e)
                prior = out.get(lowered)
                out[lowered] = contrib if prior is None else prior + contrib
        return CliffordPoly(self.n, out)

    def eval(self, values: Sequence[Fraction]) -> Multivector:
        """Evaluate at rational coordinates (x0, ..., xn) exactly."""
        if len(values) != self.n + 1:
            raise ValueError(f"need {self.n + 1} coordinates, got {len(values)}")
        coords = [Fraction(v) for v in values]
        acc = Multivector.zero(self.n)
        for exps, coeff in self.terms.items():
            scale = ONE
            for value, e in zip(coords, exps):
                if e:
                    scale *= value**e
            acc = acc + coeff * scale
        return acc

    def sorted_terms(self) -> list[tuple[ExponentIndex, Multivector]]:
        """Terms in graded-lexicographic order of the multi-index."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def leading_term(self) -> tuple[ExponentIndex, Multivector] | None:
        """First nonzero term in graded-lex order, or None for the zero poly."""
        if not self.terms:
            return None
        exps = min(self.terms, key=lambda e: (sum(e), e))
        return exps, self.terms[exps]

    def __eq__(self, other):
        if not isinstance(other, CliffordPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset((e, c) for e, c in self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            vars_part = "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}"
                for i, e in enumerate(exps)
                if e
            )
            coeff_part = str(coeff)
            if " " in coeff_part:
                coeff_part = f"({coeff_part})"
            parts.append(f"{coeff_part}*{vars_part}" if vars_part else coeff_part)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"CliffordPoly(n={self.n}, {self})"

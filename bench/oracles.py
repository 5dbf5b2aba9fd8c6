"""Independent checks of hyperappell's command output.

Nothing here imports the package under test.  Each check recomputes the
expected mathematics by a route of its own and raises ``Mismatch`` with a
short reason when the output disagrees:

* diagonal coefficients from the double-factorial closed form,
  ``c_k = (2r-1)!! (n-2)!! / (n+2r-2)!!`` with ``r = ceil(k/2)``;
* every transfer matrix as ``f(H)`` for one exponential generating
  function ``f = sum t_k z^k / k!``, so ``T[i][j] = C(i,j) t_(i-j)``, with
  ``t_k`` from the classical recurrences (Bernoulli numbers, Frobenius-Euler
  numbers, Hermite moments) rather than from matrix inversion;
* sequence members in binary form, ``p_k = sum C(k,i+j) t_(k-i-j)
  C(i+j,j) c_j x0^i v^j``, whose restriction to the real line is the
  classical Appell polynomial ``sum C(k,i) t_(k-i) x^i``;
* values at a paravector point from ``v^2 = -|v|^2``, and the truncated
  exponential regrouped as ``sum_j c_j v^j / j! * sum_(i<=T-j) x0^i / i!``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb, factorial


class Mismatch(Exception):
    """An output that disagrees with the independent computation."""


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise Mismatch(reason)


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def closed_form_coeffs(n: int, m: int) -> list[Fraction]:
    """c_0..c_m for dimension n with c_0 = 1 and no shift."""
    out = [Fraction(1)]
    for k in range(1, m + 1):
        r = (k + 1) // 2
        out.append(
            Fraction(
                _double_factorial(2 * r - 1) * _double_factorial(n - 2),
                _double_factorial(n + 2 * r - 2),
            )
        )
    return out


def family_moments(family: str, m: int, lam: Fraction | None = None) -> list[Fraction]:
    """t_0..t_m, the first column of the family's transfer matrix."""
    if family == "canonical":
        return [Fraction(int(k == 0)) for k in range(m + 1)]
    if family == "bernoulli":
        # sum_(j<=k) C(k+1, j) B_j = 0 for k >= 1
        t = [Fraction(1)]
        for k in range(1, m + 1):
            t.append(-sum(comb(k + 1, j) * t[j] for j in range(k)) / (k + 1))
        return t
    if family in ("euler", "frobenius-euler"):
        # (e^z - lam) f(z) = 1 - lam, with lam = -1 for Euler
        lam = Fraction(-1) if family == "euler" else Fraction(lam)
        t = [Fraction(1)]
        for k in range(1, m + 1):
            t.append(-sum(comb(k, j) * t[j] for j in range(k)) / (1 - lam))
        return t
    if family == "hermite":
        # exp(-z^2/4): t_(2r) = (2r)! / r! * (-1/4)^r
        return [
            Fraction(factorial(k), factorial(k // 2)) * Fraction(-1, 4) ** (k // 2)
            if k % 2 == 0
            else Fraction(0)
            for k in range(m + 1)
        ]
    raise ValueError(f"no moments for family {family!r}")


def expected_terms(n: int, m: int, family: str, lam=None) -> list[dict]:
    """Binary-form coefficients {(i, j): a} of p_0..p_m, zeros dropped."""
    c = closed_form_coeffs(n, m)
    t = family_moments(family, m, lam)
    polys = []
    for k in range(m + 1):
        terms = {}
        for d in range(k + 1):
            outer = comb(k, d) * t[k - d]
            if not outer:
                continue
            for j in range(d + 1):
                a = outer * comb(d, j) * c[j]
                if a:
                    terms[(d - j, j)] = a
        polys.append(terms)
    return polys


def _parse_json(out: bytes) -> dict:
    try:
        return json.loads(out)
    except ValueError as exc:
        raise Mismatch(f"output is not JSON: {exc}")


def _frac(text: str) -> Fraction:
    _require(isinstance(text, str) and re.fullmatch(r"-?\d+(/\d+)?", text) is not None,
             f"not an exact rational: {text!r}")
    return Fraction(text)


def _terms_of(payload: dict) -> dict:
    return {
        (int(t["i"]), int(t["j"])): _frac(t["a"]) for t in payload["terms"]
    }


# -- per-command checks ----------------------------------------------------


def check_gen(out: bytes, n: int, m: int, family: str, lam=None) -> None:
    doc = _parse_json(out)
    _require(doc.get("n") == n and doc.get("m") == m and doc.get("family") == family,
             "gen header (n, m, family) differs")
    _require(doc.get("s") == 0, "gen shift differs")
    _require((doc.get("lambda") is None) == (lam is None), "gen lambda presence differs")
    if lam is not None:
        _require(_frac(doc["lambda"]) == Fraction(lam), "gen lambda differs")
    _require([_frac(x) for x in doc["coeffs"]] == closed_form_coeffs(n, m),
             "coefficients differ from the double-factorial closed form")
    expected = expected_terms(n, m, family, lam)
    polys = doc["polys"]
    _require([p["k"] for p in polys] == list(range(m + 1)), "gen degrees are not 0..m")
    t = family_moments(family, m, lam)
    for k, (entry, want) in enumerate(zip(polys, expected)):
        got = _terms_of(entry)
        real_line = [got.get((i, 0), Fraction(0)) for i in range(k + 1)]
        classical = [comb(k, i) * t[k - i] for i in range(k + 1)]
        _require(real_line == classical,
                 f"degree {k}: restriction to the real line is not the classical polynomial")
        _require(got == want, f"degree {k}: binary-form coefficients differ")


def check_verify_pass(out: bytes, n: int, m: int, family: str) -> None:
    doc = _parse_json(out)
    _require(doc.get("ok") is True, "verify did not report ok")
    _require(doc.get("n") == n and doc.get("family") == family, "verify header differs")
    _require(doc.get("intertwining") is True, "intertwining not certified")
    results = doc.get("results", [])
    _require([r["k"] for r in results] == list(range(m + 1)), "verify degrees are not 0..m")
    for r in results:
        _require(r.get("monogenic") is True and r.get("ladder") is True,
                 f"degree {r['k']} not certified")
        _require("witness" not in r, f"degree {r['k']} carries a witness")


def check_verify_witness(out: bytes, m: int, bad_degree: int) -> None:
    doc = _parse_json(out)
    _require(doc.get("ok") is False, "corrupted sequence reported ok")
    _require(doc.get("intertwining") is True, "intertwining should still hold")
    results = doc.get("results", [])
    _require(len(results) == m + 1, "verify degrees are not 0..m")
    failing = [r["k"] for r in results if r.get("monogenic") is False or r.get("ladder") is False]
    _require(bool(failing) and failing[0] == bad_degree,
             f"first failing degree {failing[:1]} is not the corrupted degree {bad_degree}")
    witness = results[bad_degree].get("witness")
    _require(isinstance(witness, dict) and len(witness.get("exponents", ())) == doc["n"] + 1,
             "no witness monomial at the corrupted degree")
    _require(any(_frac(t["coeff"]) for t in witness["coeff"]["terms"]),
             "witness coefficient is zero")


def _paravector_value(scalar: Fraction, vec_coeff: Fraction, vec: list[Fraction]) -> dict:
    """{blade tuple: coeff} of scalar + vec_coeff * (v1 e1 + ... + vn en)."""
    value = {(): scalar} if scalar else {}
    for idx, v in enumerate(vec, start=1):
        if vec_coeff * v:
            value[(idx,)] = vec_coeff * v
    return value


def _mv_terms(payload: dict, n: int) -> dict:
    _require(payload.get("n") == n, "multivector dimension differs")
    return {tuple(t["blade"]): _frac(t["coeff"]) for t in payload["terms"]}


def check_eval(out: bytes, n: int, m: int, family: str, lam, point: list[Fraction]) -> None:
    doc = _parse_json(out)
    _require([_frac(x) for x in doc["point"]] == point, "eval point differs")
    x0, vec = point[0], point[1:]
    square = -sum(v * v for v in vec)
    values = doc["values"]
    _require([v["k"] for v in values] == list(range(m + 1)), "eval degrees are not 0..m")
    for k, terms in enumerate(expected_terms(n, m, family, lam)):
        scalar = vec_coeff = Fraction(0)
        for (i, j), a in terms.items():
            part = a * x0**i * square ** (j // 2)
            if j % 2:
                vec_coeff += part
            else:
                scalar += part
        _require(_mv_terms(values[k]["value"], n) == _paravector_value(scalar, vec_coeff, vec),
                 f"value of degree {k} differs")


def check_exp(out: bytes, n: int, order: int, point: list[Fraction]) -> None:
    doc = _parse_json(out)
    _require(doc.get("n") == n and doc.get("order") == order, "exp header differs")
    _require([_frac(x) for x in doc["point"]] == point, "exp point differs")
    x0, vec = point[0], point[1:]
    square = -sum(v * v for v in vec)
    # partial sums E_r = sum_(i<=r) x0^i / i!
    partial, term = [Fraction(1)], Fraction(1)
    for i in range(1, order + 1):
        term = term * x0 / i
        partial.append(partial[-1] + term)
    c = closed_form_coeffs(n, order)
    scalar = vec_coeff = Fraction(0)
    power = Fraction(1)  # (-|v|^2)^(j//2) / j!
    for j in range(order + 1):
        if j:
            power /= j
            if j % 2 == 0:
                power *= square
        part = c[j] * power * partial[order - j]
        if j % 2:
            vec_coeff += part
        else:
            scalar += part
    _require(_mv_terms(doc["value"], n) == _paravector_value(scalar, vec_coeff, vec),
             "truncated exponential differs")


def check_matrix(out: bytes, m: int, moments: list[Fraction]) -> None:
    """T[i][j] = C(i,j) t_(i-j): the Appell structure and its first column."""
    doc = _parse_json(out)
    _require(doc.get("m") == m, "matrix order differs")
    rows = doc["rows"]
    _require([len(r) for r in rows] == list(range(1, m + 2)), "matrix is not lower-triangular")
    for i, row in enumerate(rows):
        for j, text in enumerate(row):
            _require(_frac(text) == comb(i, j) * moments[i - j],
                     f"matrix entry ({i}, {j}) differs")


def pascal_moments(x0: Fraction, m: int) -> list[Fraction]:
    return [x0**k for k in range(m + 1)]


def check_usage_error(out: bytes, err: bytes) -> None:
    _require(out == b"", "usage error wrote to stdout")
    _require(b"Traceback" not in err, "usage error printed a traceback")
    _require(b"error:" in err, "usage error has no message")


def max_bits(out: bytes) -> int:
    """Largest bit length of any integer written in an output."""
    return max((int(tok).bit_length() for tok in re.findall(rb"\d+", out)), default=0)

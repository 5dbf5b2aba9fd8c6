"""The sequence file layout: the JSON of `gen` and `--input`, and the text of a member.

`sequence_json` is the one layout of a sequence as a dict; `from_json`
loads it back and refuses any payload no builder could produce.
`sequence_pieces` is the text `gen` writes, the bytes of that dict's
``json.dumps(..., sort_keys=True, indent=2)``, rendered one block
t_(k-l) phi_l of `transferred_terms` at a time from its integer pairs
(`matrices` renders its rows the same way).  `member_text` is a member as
`gen --format pretty` prints it.  Of the commands, only `gen` and
`--input` run this module.
"""

from __future__ import annotations

from fractions import Fraction

from .appell import (AppellPoly, AppellSequence, CoeffSequence, check_header, coefficient_sequence,
                     family_members)
from .rationals import ONE, parse_pair, ratio_text, read_rational
from .trimatrix import transfer_column


def member_text(terms) -> str:
    """A member as text, from its ((i, j), num, den) in `sorted_terms` order; "0" if none."""
    pieces = []
    for (i, j), num, den in terms:
        factors = [ratio_text(abs(num), den)] if abs(num) != 1 or den != 1 or i == j == 0 else []
        if i:
            factors.append("x0" if i == 1 else f"x0^{i}")
        if j:
            factors.append("xv" if j == 1 else f"xv^{j}")
        pieces.append((" - " if num < 0 else " + ") if pieces else ("-" if num < 0 else ""))
        pieces.append("*".join(factors))
    return "".join(pieces) or "0"


def sequence_json(family: str, coeffs: CoeffSequence, lam: Fraction | None, members) -> dict:
    """The one JSON layout of a sequence.

    `members` yields, for k = 0..m, member k's ((i, j), (num, den)) in `sorted_terms` order.
    """
    return {
        "n": coeffs.n,
        "family": family,
        "lambda": None if lam is None else str(lam),
        "s": coeffs.shift,
        "m": coeffs.m,
        "coeffs": [str(c) for c in coeffs.values],
        "polys": [
            {"k": k, "terms": [{"i": i, "j": j, "a": ratio_text(*a)} for (i, j), a in terms]}
            for k, terms in enumerate(members)
        ],
    }


def sequence_pieces(family: str, coeffs: CoeffSequence, lam: Fraction | None, members,
                    approx: list[float] | None = None):
    """The text of ``json.dumps(payload, sort_keys=True, indent=2) + "\n"``, one piece per block.

    The payload is `sequence_json` of the members, plus "coeffs_approx" when
    `approx` is given.  `members` is `transferred_terms`: for k = 0..m, the
    blocks of member k, each a list of ((i, j), num, den).  The header goes
    out with the first block, each later block is one piece of at most k + 1
    terms, and the tail is the last piece.  No array is empty: m >= 0, and
    member k holds the block t_0 phi_k.
    """
    def array(texts):
        return "[" + ",".join("\n    " + text for text in texts) + "\n  ]"

    head = '{\n  "coeffs": ' + array([f'"{c}"' for c in coeffs.values])
    if approx is not None:
        head += ',\n  "coeffs_approx": ' + array([float.__repr__(x) for x in approx])
    lam_text = "null" if lam is None else f'"{lam}"'
    piece = (f'{head},\n  "family": "{family}",\n  "lambda": {lam_text},'
             f'\n  "m": {coeffs.m},\n  "n": {coeffs.n},\n  "polys": [')
    for k, blocks in enumerate(members):
        piece += f'{"," if k else ""}\n    {{\n      "k": {k},\n      "terms": ['
        for block in blocks:
            yield piece + ",".join(
                f'\n        {{\n          "a": "{ratio_text(num, den)}",'
                f'\n          "i": {i},\n          "j": {j}\n        }}'
                for (i, j), num, den in block
            )
            piece = ","
        piece = "\n      ]\n    }"
    yield piece + f'\n  ],\n  "s": {coeffs.shift}\n}}\n'


def from_json(payload: dict) -> AppellSequence:
    """Load a `sequence_json` payload, refusing (ValueError) one no builder could produce.

    The header must pass `check_header`, c_0..c_m be those of n, s and c_0,
    and a shifted file, which `certify` checks only by intertwining, hold
    exactly `build_phi(coeffs)`.  Each member is an AppellPoly of the pairs
    {(i, j): (num, den)} as read, the form `appell.family_members` draws.
    """
    n = _json_get(payload, "n", int)
    shift = _json_get(payload, "s", int, default=0)
    family = _json_get(payload, "family", str)
    lam = payload.get("lambda")
    lam = None if lam is None else read_rational(lam, "lambda")
    check_header(family, lam, shift)
    values = tuple(read_rational(c, "coefficient") for c in _json_get(payload, "coeffs", list))
    polys, keys = [], {}
    entries = _json_get(payload, "polys", list)
    for entry in sorted(entries, key=lambda e: _json_get(e, "k", int)):
        k = entry["k"]
        if 0 <= k < len(polys):
            raise ValueError(f"polynomial degree {k} is listed more than once")
        if k != len(polys):
            raise ValueError(f"polynomial degrees must cover 0..m, missing {len(polys)}")
        terms = {}
        for term in _json_get(entry, "terms", list):
            key = (_json_get(term, "i", int), _json_get(term, "j", int))
            if min(key) < 0 or sum(key) > k:
                raise ValueError(f"term x0^{key[0]} v^{key[1]} is not of degree 0..{k}")
            a = read_rational(term.get("a"), "term coefficient", parse_pair)
            a = (Fraction(*terms[key]) + Fraction(*a)).as_integer_ratio() if key in terms else a
            terms[keys.setdefault(key, key)] = a  # one key tuple for every member
        # repeated keys summed and zeros dropped, as the AppellPoly constructor does
        polys.append(AppellPoly.of_pairs(k, {key: a for key, a in terms.items() if a[0]}))
    if not polys:
        raise ValueError("sequence must contain at least degree 0")
    m = len(polys) - 1
    if _json_get(payload, "m", int) != m:
        raise ValueError(f"m is {payload['m']}, but the polynomials cover degrees 0..{m}")
    coeffs = coefficient_sequence(n, m, c0=values[0] if values else ONE, shift=shift)
    if coeffs.values != values:
        raise ValueError(f"coefficients are not c_0..c_{m} of n={n}, s={shift}")
    if shift and polys != list(family_members(transfer_column("canonical", m), coeffs)):
        raise ValueError(f"a file with s={shift} must hold build_phi of its coefficients")
    return AppellSequence(family=family, polys=polys, coeffs=coeffs, lam=lam)


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

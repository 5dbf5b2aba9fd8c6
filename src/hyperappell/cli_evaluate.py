"""`eval` and `exp`: exact values at a rational paravector, as JSON, CSV or text.

Each value A + B v is rendered from one list of (blade, coefficient) terms:
the scalar A on the blade (), then B x_k on (k,), zeros dropped, the graded
order and layout of a `Multivector` of Cl(0,n).
"""

from __future__ import annotations

from fractions import Fraction

from .cli import check_size, csv_lines, emit, triangle, value_text
from .cli_digits import check_values
from .evaluate import binary_exp, binary_values
from .rationals import approximate, read_rational
from .trimatrix import check_dimension


def _parse_point(text: str, n: int) -> tuple[Fraction, tuple[Fraction, ...]]:
    """The point (x0, (x1, ..., xn)) of --point."""
    parts = text.split(",")
    if len(parts) != n + 1:
        raise ValueError(
            f"--point needs {n + 1} comma-separated components (x0..x{n}), got {len(parts)}"
        )
    coords = [read_rational(p, "--point") for p in parts]
    return coords[0], tuple(coords[1:])


def _terms(value: tuple[Fraction, Fraction], vec) -> list[tuple[tuple[int, ...], Fraction]]:
    """The terms of A + B v: A on (), B x_k on (k,), zeros dropped."""
    scalar, vec_coeff = value
    terms = [((), scalar)] + [((k,), vec_coeff * x) for k, x in enumerate(vec, start=1)]
    return [(blade, coeff) for blade, coeff in terms if coeff]


def _value_json(n: int, terms, with_float: bool) -> dict:
    out = {"n": n, "terms": [{"blade": list(b), "coeff": str(coeff)} for b, coeff in terms]}
    if with_float:
        for term, (_, coeff) in zip(out["terms"], terms):
            term["approx"] = approximate(coeff, "--float")
    return out


def _rows(terms) -> list[list]:
    """One (blade label, exact coefficient as (num, den)) CSV row per term."""
    return [["e" + "".join(map(str, blade)) if blade else "1", (coeff.numerator, coeff.denominator)]
            for blade, coeff in terms]


def cmd_eval(args) -> int:
    from .cli_sequence import load_sequence  # here, as `exp` reads no sequence

    seq = load_sequence(args)
    x0, vec = _parse_point(args.point, seq.n)
    values = [_terms(value, vec) for value in binary_values(seq, (x0, vec))]
    check_values(values)
    if args.format == "json":
        out = {
            "family": seq.family,
            "n": seq.n,
            "m": seq.m,
            "point": [str(v) for v in (x0, *vec)],
            "values": [
                {"k": k, "value": _value_json(seq.n, terms, args.float)}
                for k, terms in enumerate(values)
            ],
        }
    elif args.format == "csv":
        rows = [[k, *row] for k, terms in enumerate(values) for row in _rows(terms)]
        # formatted whole, so a value past the digit limit exits 2 before the first byte
        out = list(csv_lines(["k", "blade", "coeff"], lambda: rows, args.float))
    else:
        lines = [f"phi_{k}(x) = {value_text(terms)}" for k, terms in enumerate(values)]
        out = "\n".join(lines) + "\n"
    emit(out, args.output)
    return 0


def cmd_exp(args) -> int:
    check_dimension(args.n)
    # the sum of phi_0..phi_T in T+1 steps on c_j and x0^i / i!, of up to O(T log T) digits
    check_size("--order", args.order, triangle(args.order), "terms")
    x0, vec = _parse_point(args.point, args.n)
    terms = _terms(binary_exp((x0, vec), args.order), vec)
    check_values([terms])
    if args.format == "json":
        out = {
            "n": args.n,
            "order": args.order,
            "point": [str(v) for v in (x0, *vec)],
            "value": _value_json(args.n, terms, args.float),
        }
    elif args.format == "csv":
        out = list(csv_lines(["blade", "coeff"], lambda: _rows(terms), args.float))  # as in eval
    else:
        out = f"Exp_{args.n}(x) truncated at {args.order}: {value_text(terms)}\n"
    emit(out, args.output)
    return 0

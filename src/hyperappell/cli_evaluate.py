"""`eval` and `exp`: exact values at a rational paravector, as JSON, CSV or text."""

from __future__ import annotations

from . import clifford  # runs on first use, as every layer (see the package docstring)
from .cli import check_size, csv_lines, emit, triangle
from .cli_digits import check_values
from .evaluate import eval_at, exp_truncated
from .rationals import approximate, read_rational
from .trimatrix import check_dimension


def _parse_point(text: str, n: int) -> clifford.Paravector:
    parts = text.split(",")
    if len(parts) != n + 1:
        raise ValueError(
            f"--point needs {n + 1} comma-separated components (x0..x{n}), got {len(parts)}"
        )
    coords = [read_rational(p, "--point") for p in parts]
    return clifford.Paravector(coords[0], tuple(coords[1:]))


def _mv_json(mv: clifford.Multivector, with_float: bool) -> dict:
    payload = mv.to_json()
    if with_float:
        for term, (_, coeff) in zip(payload["terms"], mv.sorted_terms()):
            term["approx"] = approximate(coeff, "--float")
    return payload


def _mv_rows(mv: clifford.Multivector) -> list[list]:
    """One (blade label, exact coefficient) CSV row per term."""
    return [
        ["e" + "".join(map(str, clifford.mask_to_indices(mask))) if mask else "1", coeff]
        for mask, coeff in mv.sorted_terms()
    ]


def cmd_eval(args) -> int:
    from .cli_sequence import load_sequence  # here, as `exp` reads no sequence

    seq = load_sequence(args)
    point = _parse_point(args.point, seq.n)
    values = eval_at(seq, point)
    check_values(values)
    if args.format == "json":
        out = {
            "family": seq.family,
            "n": seq.n,
            "m": seq.m,
            "point": [str(v) for v in (point.x0, *point.vec)],
            "values": [
                {"k": k, "value": _mv_json(mv, args.float)}
                for k, mv in enumerate(values)
            ],
        }
    elif args.format == "csv":
        rows = [[k, *row] for k, mv in enumerate(values) for row in _mv_rows(mv)]
        # formatted whole, so a value past the digit limit exits 2 before the first byte
        out = list(csv_lines(["k", "blade", "coeff"], lambda: rows, args.float))
    else:
        lines = [f"phi_{k}(x) = {mv}" for k, mv in enumerate(values)]
        out = "\n".join(lines) + "\n"
    emit(out, args.output)
    return 0


def cmd_exp(args) -> int:
    check_dimension(args.n)
    # the sum of phi_0..phi_T in T+1 steps on c_j and x0^i / i!, of up to O(T log T) digits
    check_size("--order", args.order, triangle(args.order), "terms")
    point = _parse_point(args.point, args.n)
    value = exp_truncated(point, args.order)
    check_values([value])
    if args.format == "json":
        out = {
            "n": args.n,
            "order": args.order,
            "point": [str(v) for v in (point.x0, *point.vec)],
            "value": _mv_json(value, args.float),
        }
    elif args.format == "csv":
        out = list(csv_lines(["blade", "coeff"], lambda: _mv_rows(value), args.float))  # as in eval
    else:
        out = f"Exp_{args.n}(x) truncated at {args.order}: {value}\n"
    emit(out, args.output)
    return 0

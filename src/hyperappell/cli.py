"""Command-line front end.

Five subcommands: gen builds a sequence, verify certifies one, eval
evaluates at a rational point, matrices emits the structural matrices,
exp sums the truncated generalized exponential.  All arithmetic is exact;
--float only adds decimal renderings next to the exact values.

Output is deterministic: JSON keys are sorted, list orders are fixed by
the library's canonical term ordering, and CSV uses a fixed header and
line terminator.  Repeated runs with the same flags produce byte-identical
bytes.  A negative rational may follow its flag as --lambda -3/5.

Exit status: 0 on success (verify: all checks passed), 1 when verification
fails, 2 on usage or configuration errors, 3 on an internal error (a bug,
reported on stderr as one "internal error:" line).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction

from .appell import (
    FAMILIES,
    AppellSequence,
    build_family,
    exp_truncated,
)
from .clifford import Multivector, Paravector
from .operators import VerifyReport, certify
from .rationals import format_rational, parse_rational
from .trimatrix import (
    TriMatrix,
    bernoulli_transfer,
    creation_matrix,
    derivation_matrix,
    euler_transfer,
    frobenius_euler_transfer,
    hermite_transfer,
    pascal_matrix,
)

TRANSFER_FAMILIES = ("bernoulli", "euler", "frobenius-euler", "hermite")
RATIONAL_FLAGS = ("--lambda", "--c0", "--pascal", "--point")
NEGATIVE_VALUE = re.compile(r"-\d")


class UsageError(Exception):
    """Bad flags or bad input values; maps to exit status 2."""


def _rational_arg(text: str, flag: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{flag} expects an exact rational like 3 or -3/4: {exc}")


def _parse_point(text: str, n: int) -> Paravector:
    parts = text.split(",")
    if len(parts) != n + 1:
        raise UsageError(
            f"--point needs {n + 1} comma-separated components (x0..x{n}), got {len(parts)}"
        )
    coords = [_rational_arg(p.strip(), "--point") for p in parts]
    return Paravector(coords[0], tuple(coords[1:]))


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _mv_json(mv: Multivector, with_float: bool) -> dict:
    payload = mv.to_json()
    if with_float:
        for term in payload["terms"]:
            term["approx"] = float(parse_rational(term["coeff"]))
    return payload


def _blade_label(indices: list[int]) -> str:
    return "e" + "".join(str(k) for k in indices) if indices else "1"


# -- sequence construction from flags ------------------------------------


def _sequence_from_flags(args) -> AppellSequence:
    if args.n is None or args.m is None:
        raise UsageError("--n and --m are required when --input is not given")
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    if args.m < 0:
        raise UsageError("--m must be nonnegative")
    if args.shift < 0:
        raise UsageError("--shift must be nonnegative")
    lam = None
    if args.lam is not None:
        if args.family != "frobenius-euler":
            raise UsageError("--lambda only applies to --family frobenius-euler")
        lam = _rational_arg(args.lam, "--lambda")
        if lam == 1:
            raise UsageError("--lambda must differ from 1")
    elif args.family == "frobenius-euler":
        raise UsageError("--family frobenius-euler requires --lambda")
    c0 = _rational_arg(args.c0, "--c0")
    try:
        return build_family(
            args.n, args.m, family=args.family, c0=c0, lam=lam, shift=args.shift
        )
    except ValueError as exc:
        raise UsageError(str(exc))


def _load_sequence(args) -> AppellSequence:
    if args.input is None:
        return _sequence_from_flags(args)
    if args.n is not None or args.m is not None:
        raise UsageError("--input replaces --n/--m; give one or the other")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        return AppellSequence.from_json(payload)
    except OSError as exc:
        raise UsageError(f"cannot read {args.input}: {exc}")
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"{args.input} is not a valid sequence file: {exc}")


# -- subcommands ----------------------------------------------------------


def cmd_gen(args) -> int:
    seq = _sequence_from_flags(args)
    if args.format == "json":
        payload = seq.to_json()
        if args.float:
            payload["coeffs_approx"] = [float(c) for c in seq.coeffs.values]
        text = _dump_json(payload)
    elif args.format == "csv":
        header = ["k", "i", "j", "a"]
        rows: list[list] = [list(row) for row in seq.csv_rows()]
        if args.float:
            header.append("approx")
            for row in rows:
                row.append(float(parse_rational(row[3])))
        text = _csv_text(header, rows)
    else:
        lines = [f"family: {seq.family}  n: {seq.n}  m: {seq.m}  s: {seq.shift}"]
        if seq.lam is not None:
            lines.append(f"lambda: {format_rational(seq.lam)}")
        lines.append("coeffs: " + ", ".join(format_rational(c) for c in seq.coeffs.values))
        for k, poly in enumerate(seq.polys):
            lines.append(f"phi_{k} = {poly}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0


def _pretty_flag(value: bool | None) -> str:
    if value is None:
        return "-"
    return "pass" if value else "FAIL"


def _pretty_report(report: VerifyReport) -> str:
    lines = [f"family: {report.family}  n: {report.n}  m: {len(report.results) - 1 if report.results else 0}  s: {report.shift}"]
    for check in report.results:
        lines.append(
            f"k={check.k}  monogenic={_pretty_flag(check.monogenic)}"
            f"  ladder={_pretty_flag(check.ladder)}"
        )
        if check.witness is not None:
            exps = ",".join(str(e) for e in check.witness["exponents"])
            coeff = Multivector.from_json(check.witness["coeff"])
            lines.append(f"    witness: x^({exps}) * ({coeff})")
    if report.intertwining is not None:
        lines.append(f"intertwining: {_pretty_flag(report.intertwining)}")
    lines.append("result: " + ("PASS" if report.ok else "FAIL"))
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    seq = _load_sequence(args)
    report = certify(seq)
    if args.format == "json":
        text = _dump_json(report.to_json())
    elif args.format == "pretty":
        text = _pretty_report(report)
    else:
        raise UsageError("verify supports --format json or pretty")
    _emit(text, args.output)
    return 0 if report.ok else 1


def cmd_eval(args) -> int:
    seq = _load_sequence(args)
    point = _parse_point(args.point, seq.n)
    values = seq.eval_at(point)
    if args.format == "json":
        payload = {
            "family": seq.family,
            "n": seq.n,
            "m": seq.m,
            "point": [format_rational(point.x0)]
            + [format_rational(v) for v in point.vec],
            "values": [
                {"k": k, "value": _mv_json(mv, args.float)}
                for k, mv in enumerate(values)
            ],
        }
        text = _dump_json(payload)
    elif args.format == "csv":
        header = ["k", "blade", "coeff"]
        if args.float:
            header.append("approx")
        rows = []
        for k, mv in enumerate(values):
            for term in mv.to_json()["terms"]:
                row = [k, _blade_label(term["blade"]), term["coeff"]]
                if args.float:
                    row.append(float(parse_rational(term["coeff"])))
                rows.append(row)
        text = _csv_text(header, rows)
    else:
        lines = [f"phi_{k}(x) = {mv}" for k, mv in enumerate(values)]
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0


def _matrix_from_flags(args) -> TriMatrix:
    if args.m is None:
        raise UsageError("--m is required")
    if args.m < 0:
        raise UsageError("--m must be nonnegative")
    chosen = [
        name
        for name, on in (
            ("--tilde", args.tilde),
            ("--pascal", args.pascal is not None),
            ("--family", args.family is not None),
        )
        if on
    ]
    if len(chosen) > 1:
        raise UsageError(f"{' and '.join(chosen)} are mutually exclusive")
    if args.tilde:
        if args.n is None:
            raise UsageError("--tilde needs --n")
        if args.n < 1:
            raise UsageError("--n must be at least 1")
        if args.shift < 0:
            raise UsageError("--shift must be nonnegative")
        return derivation_matrix(args.n, args.m, shift=args.shift)
    if args.shift:
        raise UsageError("--shift only applies to --tilde")
    if args.n is not None:
        raise UsageError("--n only applies to --tilde")
    if args.pascal is not None:
        return pascal_matrix(_rational_arg(args.pascal, "--pascal"), args.m)
    if args.family is None:
        if args.lam is not None:
            raise UsageError("--lambda only applies to --family frobenius-euler")
        return creation_matrix(args.m)
    if args.family == "bernoulli":
        transfer = bernoulli_transfer
    elif args.family == "euler":
        transfer = euler_transfer
    elif args.family == "hermite":
        transfer = hermite_transfer
    else:
        if args.lam is None:
            raise UsageError("--family frobenius-euler requires --lambda")
        lam = _rational_arg(args.lam, "--lambda")
        if lam == 1:
            raise UsageError("--lambda must differ from 1")
        return frobenius_euler_transfer(lam, args.m)
    if args.lam is not None:
        raise UsageError("--lambda only applies to --family frobenius-euler")
    return transfer(args.m)


def cmd_matrices(args) -> int:
    matrix = _matrix_from_flags(args)
    if args.format == "json":
        payload = matrix.to_json()
        if args.float:
            payload["rows_approx"] = [[float(v) for v in row] for row in matrix.rows]
        text = _dump_json(payload)
    elif args.format == "csv":
        header = ["i", "j", "value"]
        if args.float:
            header.append("approx")
        rows = []
        for i, row in enumerate(matrix.rows):
            for j, value in enumerate(row):
                out = [i, j, format_rational(value)]
                if args.float:
                    out.append(float(value))
                rows.append(out)
        text = _csv_text(header, rows)
    else:
        cells = [[format_rational(v) for v in row] for row in matrix.rows]
        width = max(len(c) for row in cells for c in row)
        lines = [" ".join(c.rjust(width) for c in row) for row in cells]
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0


def cmd_exp(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    if args.order < 0:
        raise UsageError("--order must be nonnegative")
    point = _parse_point(args.point, args.n)
    value = exp_truncated(point, args.order)
    if args.format == "json":
        payload = {
            "n": args.n,
            "order": args.order,
            "point": [format_rational(point.x0)]
            + [format_rational(v) for v in point.vec],
            "value": _mv_json(value, args.float),
        }
        text = _dump_json(payload)
    elif args.format == "csv":
        header = ["blade", "coeff"]
        if args.float:
            header.append("approx")
        rows = []
        for term in value.to_json()["terms"]:
            row = [_blade_label(term["blade"]), term["coeff"]]
            if args.float:
                row.append(float(parse_rational(term["coeff"])))
            rows.append(row)
        text = _csv_text(header, rows)
    else:
        text = f"Exp_{args.n}(x) truncated at {args.order}: {value}\n"
    _emit(text, args.output)
    return 0


# -- parser ---------------------------------------------------------------


def _add_output_flags(parser: argparse.ArgumentParser, formats=("json", "csv", "pretty")):
    parser.add_argument("--format", choices=formats, default="json")
    parser.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")
    parser.add_argument(
        "--float",
        action="store_true",
        help="add decimal approximations next to the exact values (json/csv)",
    )


def _add_sequence_flags(parser: argparse.ArgumentParser, with_input: bool):
    parser.add_argument("--n", type=int, help="paravector dimension (number of e_k)")
    parser.add_argument("--m", type=int, help="highest degree to build")
    parser.add_argument("--family", choices=FAMILIES, default="canonical")
    parser.add_argument("--lambda", dest="lam", metavar="p/q",
                        help="Frobenius-Euler parameter, any rational except 1")
    parser.add_argument("--c0", default="1", metavar="p/q",
                        help="normalization c_0 (default 1)")
    parser.add_argument("--shift", type=int, default=0, metavar="S",
                        help="coefficient shift for products with a degree-S monogenic factor")
    if with_input:
        parser.add_argument("--input", metavar="PATH",
                            help="load a sequence from a gen JSON file instead of building one")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperappell",
        description="exact hypercomplex Appell sequences: build, certify, evaluate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="build a sequence and print it")
    _add_sequence_flags(gen, with_input=False)
    _add_output_flags(gen)
    gen.set_defaults(handler=cmd_gen, input=None)

    verify = sub.add_parser("verify", help="certify monogenicity, ladder, intertwining")
    _add_sequence_flags(verify, with_input=True)
    _add_output_flags(verify, formats=("json", "pretty"))
    verify.set_defaults(handler=cmd_verify)

    ev = sub.add_parser("eval", help="evaluate all degrees at a rational point")
    _add_sequence_flags(ev, with_input=True)
    ev.add_argument("--point", required=True, metavar="x0,x1,..",
                    help="comma-separated rational coordinates, n+1 of them")
    _add_output_flags(ev)
    ev.set_defaults(handler=cmd_eval)

    mat = sub.add_parser("matrices", help="print H, Ht, Pascal, or a transfer matrix")
    mat.add_argument("--m", type=int, required=True, help="matrix order (size m+1)")
    mat.add_argument("--n", type=int, help="dimension, for --tilde")
    mat.add_argument("--tilde", action="store_true", help="derivation matrix instead of H")
    mat.add_argument("--shift", type=int, default=0, metavar="S",
                     help="shift for the derivation matrix")
    mat.add_argument("--pascal", metavar="p/q", help="Pascal matrix P(x0) at this x0")
    mat.add_argument("--family", choices=TRANSFER_FAMILIES,
                     help="transfer matrix of a classical family")
    mat.add_argument("--lambda", dest="lam", metavar="p/q",
                     help="Frobenius-Euler parameter, any rational except 1")
    _add_output_flags(mat)
    mat.set_defaults(handler=cmd_matrices)

    exp = sub.add_parser("exp", help="truncated generalized exponential at a point")
    exp.add_argument("--n", type=int, required=True)
    exp.add_argument("--point", required=True, metavar="x0,x1,..")
    exp.add_argument("--order", type=int, required=True, metavar="T",
                     help="truncation order (sum k = 0..T)")
    _add_output_flags(exp)
    exp.set_defaults(handler=cmd_exp)

    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """`--lambda -3/5` to `--lambda=-3/5`: argparse reads -3/5 or -1,2 as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in RATIONAL_FLAGS and NEGATIVE_VALUE.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.handler(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as exc:
        # Anything else is a bug, not a failed verification (status 1).
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

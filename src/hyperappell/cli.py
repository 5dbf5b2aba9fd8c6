"""Command-line front end.

Five subcommands: gen builds a sequence, verify certifies one, eval
evaluates at a rational point, matrices emits the structural matrices,
exp sums the truncated generalized exponential.  All arithmetic is exact;
--float (json and csv; not on verify) only adds decimal renderings next to
the exact values.

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
import json
import math
import os
import re
import stat
import sys
from fractions import Fraction
from itertools import accumulate, chain

# appell, clifford and operators run on first use (see the package docstring): `matrices` runs none
from . import appell, clifford, operators
from .jsonwriter import write_json
from .rationals import approximate, read_rational
from .trimatrix import (
    FAMILIES,
    TRANSFER_FAMILIES,
    appell_rows,
    check_dimension,
    derivation_entry,
    matrix_json,
    pascal_column,
    subdiagonal_rows,
    transfer_column,
)

RATIONAL_FLAGS = ("--lambda", "--c0", "--pascal", "--point")
# Sequence flags that --input replaces; unset they are None and the library default applies.
BUILD_FLAGS = {"family": "--family", "lam": "--lambda", "c0": "--c0", "shift": "--shift"}
NEGATIVE_VALUE = re.compile(r"-\d")
# The most terms (of a sequence) or entries (of a matrix) a command may build.
SIZE_BUDGET = 10**6
# The most bytes an --input file may hold: 300 per term, as `gen --n 3 --m 1412`, the largest
# canonical file within SIZE_BUDGET, spends about 280; its values are counted apart, 5 per term.
INPUT_BUDGET = 300 * SIZE_BUDGET


def _check_size(flag: str, value: int, estimate: int, unit: str) -> None:
    """Refuse, before any work, a build whose estimated size exceeds SIZE_BUDGET."""
    if value >= 0 and estimate > SIZE_BUDGET:
        raise ValueError(
            f"{flag} {value} would build about {estimate} {unit},"
            f" more than the budget of {SIZE_BUDGET}"
        )


def _check_digits(column, coeffs) -> None:
    """Refuse, before the first byte, output with a number past CPython's int-to-str digit limit.

    `gen` prints c_j and each a = C(k, l) t_(k-l) C(l, j) c_j; the entries
    of `matrices` are the a of c = (1, 0, ..., 0).  As (k-l) + j <= m,
    |num a| <= C(m, k-l) |num t_(k-l)| times the largest C(m, i) |num c_i|
    with i <= m-k+l, and den a <= max den t * max den c; as t_0 = 1, that
    covers each c_j too.  O(m) integer work.
    """
    if not column:  # an empty column (m < 0) is refused later
        return
    m = len(column) - 1
    best = list(accumulate((math.comb(m, i) * abs(c.numerator) for i, c in enumerate(coeffs)), max))
    num = max(math.comb(m, d) * abs(t.numerator) * best[m - d] for d, t in enumerate(column))
    _check_bound(max(num, max(t.denominator for t in column) * max(c.denominator for c in coeffs)))


def _check_bound(bound: int) -> None:
    """Refuse, before the first byte, output whose numbers may reach `bound` past the limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # CPython < 3.10.7 has none
    if limit and bound >= 10**limit:  # 0 is no limit
        raise ValueError(
            f"the output would hold numbers of about {int(math.log10(bound)) + 1} digits,"
            f" more than the limit of {limit} digits for int to str conversion"
        )


def _check_values(values) -> None:
    """Refuse, before the first byte, computed values of `eval` or `exp` past the digit limit."""
    parts = (c for mv in values for c in mv.terms.values())
    _check_bound(max((max(abs(c.numerator), c.denominator) for c in parts), default=0))


def _triangle(m: int) -> int:
    """(m+1)(m+2)/2: entries of a triangular matrix, terms of phi_0..phi_m."""
    return (m + 1) * (m + 2) // 2


def _parse_point(text: str, n: int) -> clifford.Paravector:
    parts = text.split(",")
    if len(parts) != n + 1:
        raise ValueError(
            f"--point needs {n + 1} comma-separated components (x0..x{n}), got {len(parts)}"
        )
    coords = [read_rational(p, "--point") for p in parts]
    return clifford.Paravector(coords[0], tuple(coords[1:]))


def _csv(header: list[str], rows, with_float: bool):
    """CSV lines of the rows `rows()` yields, as they are drawn; the last column is the exact value.

    --float appends it as "approx", all computed first: a value beyond double range exits 2.
    """
    drawn = rows()
    if with_float:
        approx = [approximate(row[-1], "--float") for row in drawn]
        header, drawn = header + ["approx"], ([*row, a] for row, a in zip(rows(), approx))
    # no field holds a comma, a quote or a line break, so none needs quoting
    return (",".join(map(str, row)) + "\n" for part in ([header], drawn) for row in part)


def _emit(out, output: str | None) -> None:
    """Write a JSON payload piece by piece, or text whole or line by line, to stdout or `output`."""
    def write_out(fh):
        if isinstance(out, dict):
            return write_json(out, fh.write)
        fh.writelines((out,) if isinstance(out, str) else out)

    if output is None:
        return write_out(sys.stdout)
    try:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            write_out(fh)
    except OSError as exc:
        raise ValueError(f"cannot write {output}: {exc}") from None


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


# -- sequence construction from flags ------------------------------------


def _build_flags(args) -> dict:
    """The keyword arguments of `family_terms`, after the size check."""
    if args.n is None or args.m is None:
        raise ValueError("--n and --m are required when --input is not given")
    given = {key: getattr(args, key) for key in BUILD_FLAGS if getattr(args, key) is not None}
    for key in ("c0", "lam"):
        if key in given:
            given[key] = read_rational(given[key], BUILD_FLAGS[key])
    # a transfer family's member k holds up to C(k+2, 2) terms, phi_k only k+1
    estimate = _triangle(args.m)
    if given.get("family", "canonical") != "canonical":
        estimate = estimate * (args.m + 3) // 3
    _check_size("--m", args.m, estimate, "terms")
    return {"n": args.n, "m": args.m, **given}


def _load_sequence(args) -> appell.AppellSequence:
    if args.input is None:
        family, coeffs, lam, column = appell.family_terms(**_build_flags(args))
        return appell.AppellSequence(family, appell.family_members(column, coeffs), coeffs, lam)
    if args.n is not None or args.m is not None:
        raise ValueError("--input replaces --n/--m; give one or the other")
    for key, flag in BUILD_FLAGS.items():
        if getattr(args, key) is not None:
            raise ValueError(f"{flag} does not apply to --input: the file fixes the sequence")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            info = os.fstat(fh.fileno())
            size = info.st_size if stat.S_ISREG(info.st_mode) else 0
            # a regular file is read whole once its size passes (read(n) would copy the text);
            # a pipe, whose size fstat cannot tell, up to one character past the budget
            text = "" if size > INPUT_BUDGET else fh.read(-1 if size else INPUT_BUDGET + 1)
    except OSError as exc:
        raise ValueError(f"cannot read {args.input}: {exc}")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{args.input} is not a valid sequence file: {exc}")
    if max(size, len(text)) > INPUT_BUDGET:
        held = f"{size} bytes, more than" if size > INPUT_BUDGET else "more than"
        raise ValueError(f"{args.input} holds {held} the --input budget of {INPUT_BUDGET} bytes")
    # json.loads makes each value as the first item after a [ or a {, or after a comma, so this
    # bounds the parse whatever the nesting; a gen file holds 4 per term and m + 2 more with --float
    values = text.count(",") + text.count("[") + text.count("{")
    if values > 5 * SIZE_BUDGET:
        raise ValueError(f"{args.input} holds {values} commas and opening brackets,"
                         f" more than the {5 * SIZE_BUDGET} allowed for {SIZE_BUDGET} terms")
    try:
        # the text goes before the terms are loaded
        payload, text = json.loads(text), None
        seq = appell.AppellSequence.from_json(payload)
    except RecursionError:
        raise ValueError(f"{args.input} is not a valid sequence file: nested too deeply")
    except ValueError as exc:
        raise ValueError(f"{args.input} is not a valid sequence file: {exc}")
    if seq.n >= SIZE_BUDGET:  # a failure witness prints n + 1 exponents
        raise ValueError(f"{args.input} has n = {seq.n}, more than the {SIZE_BUDGET - 1}"
                         " allowed for --input")
    return seq


# -- subcommands ----------------------------------------------------------


def cmd_gen(args) -> int:
    family, coeffs, lam, column = appell.family_terms(**_build_flags(args))
    _check_digits(column, coeffs.values)
    if args.format == "json":
        members = appell.transferred_terms(column, coeffs)
        out = appell.sequence_json(family, coeffs, lam, members, array=iter)
        if args.float:
            out["coeffs_approx"] = [approximate(c, "--float") for c in coeffs.values]
    elif args.format == "csv":
        rows = lambda: ((k, i, j, a)
                        for k, member in enumerate(appell.transferred_terms(column, coeffs))
                        for (i, j), a in member)
        out = _csv(["k", "i", "j", "a"], rows, args.float)
    else:
        head = f"family: {family}  n: {coeffs.n}  m: {coeffs.m}  s: {coeffs.shift}\n"
        head += "" if lam is None else f"lambda: {lam}\n"
        head += "coeffs: " + ", ".join(map(str, coeffs.values)) + "\n"
        members = appell.transferred_terms(column, coeffs)
        out = chain([head], (f"phi_{k} = {appell.member_text(t)}\n" for k, t in enumerate(members)))
    _emit(out, args.output)
    return 0


def _pretty_flag(value: bool | None) -> str:
    return "-" if value is None else "pass" if value else "FAIL"


def _pretty_report(report: operators.VerifyReport, m: int) -> str:
    lines = [f"family: {report.family}  n: {report.n}  m: {m}  s: {report.shift}"]
    for check in report.results:
        lines.append(
            f"k={check.k}  monogenic={_pretty_flag(check.monogenic)}"
            f"  ladder={_pretty_flag(check.ladder)}"
        )
        if check.witness is not None:
            exps = ",".join(str(e) for e in check.witness["exponents"])
            coeff = clifford.Multivector.from_json(check.witness["coeff"])
            lines.append(f"    witness: x^({exps}) * ({coeff})")
    if report.intertwining is not None:
        lines.append(f"intertwining: {_pretty_flag(report.intertwining)}")
    lines.append("result: " + ("PASS" if report.ok else "FAIL"))
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    seq = _load_sequence(args)
    report = operators.certify(seq)
    out = report.to_json() if args.format == "json" else _pretty_report(report, seq.m)
    _emit(out, args.output)
    return 0 if report.ok else 1


def cmd_eval(args) -> int:
    seq = _load_sequence(args)
    point = _parse_point(args.point, seq.n)
    values = seq.eval_at(point)
    _check_values(values)
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
        out = list(_csv(["k", "blade", "coeff"], lambda: rows, args.float))
    else:
        lines = [f"phi_{k}(x) = {mv}" for k, mv in enumerate(values)]
        out = "\n".join(lines) + "\n"
    _emit(out, args.output)
    return 0


def _matrix_rows(args):
    """A function that yields the chosen matrix's rows afresh on each call.

    Every matrix keeps only its O(m) rule and builds each row when it is drawn:
    Pascal and transfer matrices their column, H and the derivation matrix their subdiagonal.
    """
    _check_size("--m", args.m, _triangle(args.m), "entries")
    given = (("--tilde", args.tilde), ("--pascal", args.pascal is not None),
             ("--family", args.family is not None))
    chosen = [name for name, on in given if on]
    if len(chosen) > 1:
        raise ValueError(f"{' and '.join(chosen)} are mutually exclusive")
    if args.lam is not None and args.family is None:
        raise ValueError("--lambda only applies to --family frobenius-euler")
    if args.tilde:
        if args.n is None:
            raise ValueError("--tilde needs --n")
        check_dimension(args.n, args.shift)
        entry = lambda i: derivation_entry(args.n, i, args.shift)  # the largest at the last odd i
        _check_bound(-entry(args.m - 1 + args.m % 2).numerator if args.m > 0 else 0)
        return lambda: subdiagonal_rows(args.m, entry)
    if args.shift:
        raise ValueError("--shift only applies to --tilde")
    if args.n is not None:
        raise ValueError("--n only applies to --tilde")
    if args.pascal is not None:
        column = pascal_column(read_rational(args.pascal, "--pascal"), args.m)
    elif args.family is not None:
        lam = None if args.lam is None else read_rational(args.lam, "--lambda")
        column = transfer_column(args.family, args.m, lam)
    else:
        return lambda: subdiagonal_rows(args.m, Fraction)
    _check_digits(column, transfer_column("canonical", args.m))
    # appell_rows refuses an empty column (m < 0) when called, before the first byte
    return lambda: appell_rows(column)


def cmd_matrices(args) -> int:
    matrix_rows = _matrix_rows(args)
    if args.format == "json":
        out = matrix_json(args.m, matrix_rows(), array=iter)
        if args.float:
            out["rows_approx"] = [
                [approximate(v, "--float") for v in row] for row in matrix_rows()
            ]
    elif args.format == "csv":
        rows = lambda: ((i, j, v) for i, row in enumerate(matrix_rows()) for j, v in enumerate(row))
        out = _csv(["i", "j", "value"], rows, args.float)
    else:
        # a first pass takes the column width, so every str is computed before the first byte
        width = max(len(str(v)) for row in matrix_rows() for v in row)
        out = (" ".join(str(v).rjust(width) for v in row) + "\n" for row in matrix_rows())
    _emit(out, args.output)
    return 0


def cmd_exp(args) -> int:
    check_dimension(args.n)
    # the sum of phi_0..phi_T in T+1 steps on c_j and x0^i / i!, of up to O(T log T) digits
    _check_size("--order", args.order, _triangle(args.order), "terms")
    point = _parse_point(args.point, args.n)
    value = appell.exp_truncated(point, args.order)
    _check_values([value])
    if args.format == "json":
        out = {
            "n": args.n,
            "order": args.order,
            "point": [str(v) for v in (point.x0, *point.vec)],
            "value": _mv_json(value, args.float),
        }
    elif args.format == "csv":
        out = list(_csv(["blade", "coeff"], lambda: _mv_rows(value), args.float))  # as in eval
    else:
        out = f"Exp_{args.n}(x) truncated at {args.order}: {value}\n"
    _emit(out, args.output)
    return 0


# -- parser ---------------------------------------------------------------


def _add_output_flags(parser, formats=("json", "csv", "pretty"), with_float=True):
    parser.add_argument("--format", choices=formats, default="json")
    parser.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")
    if with_float:
        parser.add_argument(
            "--float",
            action="store_true",
            help="add decimal approximations next to the exact values (json/csv)",
        )


def _add_sequence_flags(parser: argparse.ArgumentParser, with_input: bool):
    parser.add_argument("--n", type=int, help="paravector dimension (number of e_k)")
    parser.add_argument("--m", type=int, help="highest degree to build")
    parser.add_argument("--family", choices=FAMILIES, help="sequence family (default canonical)")
    parser.add_argument("--lambda", dest="lam", metavar="p/q",
                        help="Frobenius-Euler parameter, any rational except 1")
    parser.add_argument("--c0", metavar="p/q", help="normalization c_0 (default 1)")
    parser.add_argument("--shift", type=int, metavar="S",
                        help="coefficient shift for products with a degree-S monogenic factor"
                        " (default 0)")
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
    gen.set_defaults(handler=cmd_gen)

    verify = sub.add_parser("verify", help="certify monogenicity, ladder, intertwining")
    _add_sequence_flags(verify, with_input=True)
    _add_output_flags(verify, formats=("json", "pretty"), with_float=False)
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
        if getattr(args, "float", False) and args.format == "pretty":
            raise ValueError("--float applies to json and csv output, not to pretty")
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader left: what stdout still holds goes to devnull, so the last flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as exc:
        # Anything else is a bug, not a failed verification (status 1).
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

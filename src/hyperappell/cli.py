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

This module holds the parser, `main` and what every subcommand shares.
Each subcommand's `cmd_<name>` lives in the module `HANDLERS` names,
which `main` imports when that subcommand runs: `cli_gen`, `cli_verify`,
`cli_evaluate` (eval and exp) and `cli_matrices`, with `cli_sequence`
(a sequence from flags or from an --input file) and `cli_digits` (the
int-to-str digit limit) as their shared helpers.
"""

from __future__ import annotations

import argparse
import importlib
import os
import re
import sys

from .jsonwriter import write_json
from .rationals import approximate
from .trimatrix import FAMILIES, TRANSFER_FAMILIES

RATIONAL_FLAGS = ("--lambda", "--c0", "--pascal", "--point")
NEGATIVE_VALUE = re.compile(r"-\d")
# The most terms (of a sequence) or entries (of a matrix) a command may build.
SIZE_BUDGET = 10**6
# The module that holds each subcommand's handler: a command compiles only its own.
HANDLERS = {
    "gen": "cli_gen",
    "verify": "cli_verify",
    "eval": "cli_evaluate",
    "matrices": "cli_matrices",
    "exp": "cli_evaluate",
}


def check_size(flag: str, value: int, estimate: int, unit: str) -> None:
    """Refuse, before any work, a build whose estimated size exceeds SIZE_BUDGET."""
    if value >= 0 and estimate > SIZE_BUDGET:
        raise ValueError(
            f"{flag} {value} would build about {estimate} {unit},"
            f" more than the budget of {SIZE_BUDGET}"
        )


def triangle(m: int) -> int:
    """(m+1)(m+2)/2: entries of a triangular matrix, terms of phi_0..phi_m."""
    return (m + 1) * (m + 2) // 2


def csv_lines(header: list[str], rows, with_float: bool):
    """CSV lines of the rows `rows()` yields, as they are drawn; the last column is the exact value.

    --float appends it as "approx", all computed first: a value beyond double range exits 2.
    """
    drawn = rows()
    if with_float:
        approx = [approximate(row[-1], "--float") for row in drawn]
        header, drawn = header + ["approx"], ([*row, a] for row, a in zip(rows(), approx))
    # no field holds a comma, a quote or a line break, so none needs quoting
    return (",".join(map(str, row)) + "\n" for part in ([header], drawn) for row in part)


def emit(out, output: str | None) -> None:
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

    verify = sub.add_parser("verify", help="certify monogenicity, ladder, intertwining")
    _add_sequence_flags(verify, with_input=True)
    _add_output_flags(verify, formats=("json", "pretty"), with_float=False)

    ev = sub.add_parser("eval", help="evaluate all degrees at a rational point")
    _add_sequence_flags(ev, with_input=True)
    ev.add_argument("--point", required=True, metavar="x0,x1,..",
                    help="comma-separated rational coordinates, n+1 of them")
    _add_output_flags(ev)

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

    exp = sub.add_parser("exp", help="truncated generalized exponential at a point")
    exp.add_argument("--n", type=int, required=True)
    exp.add_argument("--point", required=True, metavar="x0,x1,..")
    exp.add_argument("--order", type=int, required=True, metavar="T",
                     help="truncation order (sum k = 0..T)")
    _add_output_flags(exp)

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
        handlers = importlib.import_module(f".{HANDLERS[args.command]}", __package__)
        return getattr(handlers, f"cmd_{args.command}")(args)
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

"""Command-line front end.

Five subcommands: gen builds a sequence, verify certifies one, eval
evaluates at a rational point, matrices emits the structural matrices,
exp sums the truncated generalized exponential.  All arithmetic is exact;
--float (json and csv; not on verify) only adds decimal renderings next to
the exact values.

Output is deterministic: JSON keys are sorted, list orders are fixed by
the library's canonical term ordering, and CSV uses a fixed header and
line terminator.  Repeated runs with the same flags produce byte-identical
bytes.  `gen` and `matrices` render their JSON as text, one block or row
per write, with the bytes of ``json.dumps(..., sort_keys=True, indent=2)``;
verify, eval and exp hand `emit` a dict, which it writes through json.dumps.

Flags are read from one table, `COMMANDS`, by `parse_args`: exact names
only, as --flag value or --flag=value; a negative rational may follow its
flag as --lambda -3/5.  -h or --help prints the table's help.

Exit status: 0 on success (verify: all checks passed), 1 when verification
fails, 2 on usage or configuration errors (one "error:" line), 3 on an
internal error (a bug, reported on stderr as one "internal error:" line).

This module holds the parser, `main` and what every subcommand shares.
Each subcommand's `cmd_<name>` lives in the module its `COMMANDS` row
names, which `main` imports when that subcommand runs: `cli_gen`,
`cli_verify`, `cli_evaluate` (eval and exp) and `cli_matrices`, with
`cli_sequence` (a sequence from flags or from an --input file) and
`cli_digits` (the int-to-str digit limit) as their shared helpers.
"""

from __future__ import annotations

import importlib
import os
import sys
from types import SimpleNamespace

from .rationals import ratio_float, ratio_text
from .trimatrix import FAMILIES, TRANSFER_FAMILIES

# The most terms (of a sequence) or entries (of a matrix) a command may build.
SIZE_BUDGET = 10**6


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
    """CSV lines of the rows `rows()` yields, as they are drawn.

    The last field of a row is its exact value, the pair (num, den) in lowest terms, den > 0.
    --float appends num / den as "approx", all computed first: a value beyond double range exits 2.
    """
    cells = lambda: ((*row[:-1], ratio_text(*row[-1])) for row in rows())
    if with_float:
        approx = [ratio_float(*row[-1], "--float") for row in rows()]
        header, drawn = header + ["approx"], ((*row, a) for row, a in zip(cells(), approx))
    else:
        drawn = cells()
    # no field holds a comma, a quote or a line break, so none needs quoting
    return (",".join(map(str, row)) + "\n" for part in ([header], drawn) for row in part)


def value_text(terms) -> str:
    """The text `str(Multivector)` gives of the (blade, coefficient) terms, in graded order.

    A blade is its ascending generator indices, () for the scalar; the text of a coefficient
    is that of its Fraction, so a term may hold either.  A unit on a blade is left out.
    """
    text = ""
    for blade, coeff in terms:
        coeff = str(coeff)
        body = coeff.lstrip("-")
        if blade:
            name = "e" + "".join(map(str, blade))
            body = name if body == "1" else f"{body}*{name}"
        negative = coeff.startswith("-")
        if text:
            text += (" - " if negative else " + ") + body
        else:
            text = ("-" if negative else "") + body
    return text or "0"


def emit(out, output: str | None) -> None:
    """Write text whole or in pieces to stdout or `output`.

    A dict payload (the report of verify, the values of eval or exp) is written whole, as
    ``json.dumps(out, sort_keys=True, indent=2) + "\n"``.
    """
    if isinstance(out, dict):
        import json  # only the commands that write a payload load it

        out = json.dumps(out, sort_keys=True, indent=2) + "\n"
    pieces = (out,) if isinstance(out, str) else out
    if output is None:
        return sys.stdout.writelines(pieces)
    try:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise ValueError(f"cannot write {output}: {exc}") from None


# -- parser ---------------------------------------------------------------


def flag(name, text, kind=str, choices=(), default=None, required=False, metavar=None, dest=None):
    """A flag table row: (name, dest, kind, choices, default, required, metavar, text).

    `dest` is the attribute the handlers read; `kind` is int, str, or bool for a switch,
    which takes no value and is True when given.
    """
    metavar = metavar or name[2:].upper()
    return name, dest or name[2:], kind, choices, default, required, metavar, text


LAMBDA = flag("--lambda", "Frobenius-Euler parameter, any rational except 1", metavar="p/q",
              dest="lam")
SEQUENCE_FLAGS = [
    flag("--n", "paravector dimension (number of e_k)", int),
    flag("--m", "highest degree to build", int),
    flag("--family", "sequence family (default canonical)", choices=FAMILIES),
    LAMBDA,
    flag("--c0", "normalization c_0 (default 1)", metavar="p/q"),
    flag("--shift", "coefficient shift for products with a degree-S monogenic factor (default 0)",
         int, metavar="S"),
]
INPUT = flag("--input", "load a sequence from a gen JSON file instead of building one",
             metavar="PATH")
POINT = flag("--point", "comma-separated rational coordinates, n+1 of them", required=True,
             metavar="x0,x1,..")
FORMAT = flag("--format", "output format (default json)", choices=("json", "csv", "pretty"),
              default="json")
OUTPUT = flag("--output", "write to a file instead of stdout", metavar="PATH")
FLOAT = flag("--float", "add decimal approximations next to the exact values (json/csv)", bool,
             default=False)
# Each subcommand: the module that holds its cmd_<name> (a command compiles only its own),
# its help line and its flags.
COMMANDS = {
    "gen": ("cli_gen", "build a sequence and print it", [*SEQUENCE_FLAGS, FORMAT, OUTPUT, FLOAT]),
    "verify": ("cli_verify", "certify monogenicity, ladder, intertwining", [
        *SEQUENCE_FLAGS, INPUT,
        flag("--format", "output format (default json)", choices=("json", "pretty"),
             default="json"),
        OUTPUT,
    ]),
    "eval": ("cli_evaluate", "evaluate all degrees at a rational point",
             [*SEQUENCE_FLAGS, INPUT, POINT, FORMAT, OUTPUT, FLOAT]),
    "matrices": ("cli_matrices", "print H, Ht, Pascal, or a transfer matrix", [
        flag("--m", "matrix order (size m+1)", int, required=True),
        flag("--n", "dimension, for --tilde", int),
        flag("--tilde", "derivation matrix instead of H", bool, default=False),
        flag("--shift", "shift for the derivation matrix", int, default=0, metavar="S"),
        flag("--pascal", "Pascal matrix P(x0) at this x0", metavar="p/q"),
        flag("--family", "transfer matrix of a classical family", choices=TRANSFER_FAMILIES),
        LAMBDA, FORMAT, OUTPUT, FLOAT,
    ]),
    "exp": ("cli_evaluate", "truncated generalized exponential at a point", [
        flag("--n", "paravector dimension (number of e_k)", int, required=True),
        POINT,
        flag("--order", "truncation order (sum k = 0..T)", int, required=True, metavar="T"),
        FORMAT, OUTPUT, FLOAT,
    ]),
}
HELP = ("-h", "--help")


def _help(command: str | None) -> str:
    """The help of one subcommand, or of the program when `command` is None."""
    if command is None:
        usage = "{" + ",".join(COMMANDS) + "} [flags]"
        text = "exact hypercomplex Appell sequences: build, certify, evaluate"
        rows = [(name, line) for name, (_, line, _) in COMMANDS.items()]
    else:
        usage, text = f"{command} [flags]", COMMANDS[command][1]
        rows = [(name if kind is bool else f"{name} {metavar}",
                 line + (f"; one of {', '.join(choices)}" if choices else "")
                 + (" (required)" if required else ""))
                for name, _, kind, choices, _, required, metavar, line in COMMANDS[command][2]]
    rows.append((", ".join(HELP), "print this help and exit"))
    return f"usage: hyperappell {usage}\n\n{text}\n\n" + "".join(
        f"  {left:<19} {right}\n" for left, right in rows)


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The flags of one command line by attribute, or None once -h or --help printed its help.

    A flag takes its value as --flag=value, or from the next argument unless that one starts
    with "-" and is not a negative number (--lambda -3/5). A repeated flag keeps its last value.
    """
    command = argv[0] if argv else None
    if command in HELP:
        print(_help(None), end="")
        return None
    if command is None:
        raise ValueError("the following arguments are required: command")
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        raise ValueError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    rest = argv[:0:-1]  # the arguments after the command, last first, so pop() takes the next
    table = {row[0]: row for row in COMMANDS[command][2]}
    args = SimpleNamespace(command=command,
                           **{dest: default for _, dest, _, _, default, *_ in table.values()})
    unknown = []
    while rest:
        arg = rest.pop()
        if arg in HELP:
            print(_help(command), end="")
            return None
        name, attached, value = arg.partition("=")
        if name not in table:
            unknown.append(arg)
            continue
        _, dest, kind, choices, *_ = table[name]
        if kind is bool:
            if attached:
                raise ValueError(f"argument {name}: ignored explicit argument {value!r}")
            value = True
        elif not attached:
            if not rest or rest[-1].startswith("-") and not "0" <= rest[-1][1:2] <= "9":
                raise ValueError(f"argument {name}: expected one argument")
            value = rest.pop()
        try:
            value = kind(value)
        except ValueError:
            raise ValueError(f"argument {name}: invalid int value: {value!r}") from None
        if choices and value not in choices:
            options = ", ".join(map(repr, choices))
            raise ValueError(f"argument {name}: invalid choice: {value!r} (choose from {options})")
        setattr(args, dest, value)
    # a required flag has no default, and no given value is None
    missing = [name for name, dest, _, _, _, required, *_ in table.values()
               if required and getattr(args, dest) is None]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            return 0
        if getattr(args, "float", False) and args.format == "pretty":
            raise ValueError("--float applies to json and csv output, not to pretty")
        handlers = importlib.import_module(f".{COMMANDS[args.command][0]}", __package__)
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

"""`matrices`: print H, the derivation matrix, a Pascal matrix or a transfer matrix row by row.

Every format draws and writes one row at a time, each entry an integer
pair (num, den) in lowest terms; the JSON is rendered as text here, as
`seqfile.sequence_pieces` renders `gen`'s.
"""

from __future__ import annotations

from .cli import check_size, csv_lines, emit, triangle
from .cli_digits import check_bound, check_digits
from .rationals import ratio_float, ratio_text, read_rational
from .trimatrix import (
    appell_rows,
    check_dimension,
    derivation_entry,
    pascal_column,
    subdiagonal_rows,
    transfer_column,
)


def _matrix_rows(args):
    """A function that yields the chosen matrix's rows of (num, den) pairs afresh on each call.

    Every matrix keeps only its O(m) rule and builds each row when it is drawn:
    Pascal and transfer matrices their column, H and the derivation matrix their subdiagonal.
    """
    check_size("--m", args.m, triangle(args.m), "entries")
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
        check_bound(-entry(args.m - 1 + args.m % 2) if args.m > 0 else 0)
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
        return lambda: subdiagonal_rows(args.m, int)
    check_digits(column, transfer_column("canonical", args.m))
    # appell_rows refuses an empty column (m < 0) when called, before the first byte
    return lambda: appell_rows(column)


def _json_pieces(m: int, rows, approx: list[list[float]] | None):
    """The text of ``json.dumps(payload, sort_keys=True, indent=2) + "\n"``, one piece per row.

    The payload is `reference.TriMatrix.to_json` of the rows, plus
    "rows_approx" when `approx` is given.  The header is the first piece and
    the tail the last.  No array is empty: m >= 0, and row i holds i + 1
    entries.
    """
    yield f'{{\n  "m": {m},\n  "rows": ['
    sep = ""
    for row in rows:
        yield sep + "\n    [" + ",".join(f'\n      "{ratio_text(*v)}"' for v in row) + "\n    ]"
        sep = ","
    sep = '\n  ],\n  "rows_approx": ['
    for row in approx or ():
        yield sep + "\n    [" + ",".join("\n      " + float.__repr__(x) for x in row) + "\n    ]"
        sep = ","
    yield "\n  ]\n}\n"


def cmd_matrices(args) -> int:
    matrix_rows = _matrix_rows(args)
    if args.format == "json":
        # every approximation, and the call that refuses a negative order, precede the first byte
        approx = None
        if args.float:
            approx = [[ratio_float(*v) for v in row] for row in matrix_rows()]
        out = _json_pieces(args.m, matrix_rows(), approx)
    elif args.format == "csv":
        rows = lambda: ((i, j, v) for i, row in enumerate(matrix_rows()) for j, v in enumerate(row))
        out = csv_lines(["i", "j", "value"], rows, args.float)
    else:
        # a first pass takes the column width, so every str is computed before the first byte
        width = max(len(ratio_text(*v)) for row in matrix_rows() for v in row)
        out = (" ".join(ratio_text(*v).rjust(width) for v in row) + "\n" for row in matrix_rows())
    emit(out, args.output)
    return 0

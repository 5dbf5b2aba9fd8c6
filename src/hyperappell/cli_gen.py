"""`gen`: build a sequence from flags and print its members as they are drawn."""

from __future__ import annotations

from itertools import chain

from . import appell  # runs on first use, as every layer (see the package docstring)
from .cli import csv_lines, emit
from .cli_digits import check_digits
from .cli_sequence import build_flags
from .rationals import approximate
from .seqfile import member_text, ratio_text, sequence_pieces


def cmd_gen(args) -> int:
    family, coeffs, lam, column = appell.family_terms(**build_flags(args))
    check_digits(column, coeffs.values)
    members = lambda: appell.transferred_terms(column, coeffs)
    if args.format == "json":
        approx = [approximate(c, "--float") for c in coeffs.values] if args.float else None
        out = sequence_pieces(family, coeffs, lam, members(), approx)
    elif args.format == "csv":
        # --float approximates the last column, so it is a Fraction there
        value = appell.reduced_fraction if args.float else ratio_text
        rows = lambda: ((k, i, j, value(num, den))
                        for k, member in enumerate(members())
                        for block in member for (i, j), num, den in block)
        out = csv_lines(["k", "i", "j", "a"], rows, args.float)
    else:
        head = f"family: {family}  n: {coeffs.n}  m: {coeffs.m}  s: {coeffs.shift}\n"
        head += "" if lam is None else f"lambda: {lam}\n"
        head += "coeffs: " + ", ".join(map(str, coeffs.values)) + "\n"
        out = chain([head], (f"phi_{k} = {member_text(chain.from_iterable(member))}\n"
                             for k, member in enumerate(members())))
    emit(out, args.output)
    return 0

"""`gen`: build a sequence from flags and print its members as they are drawn."""

from __future__ import annotations

from itertools import chain

from . import appell  # runs on first use, as every layer (see the package docstring)
from .cli import csv_lines, emit
from .cli_digits import check_digits
from .cli_sequence import build_flags
from .rationals import approximate
from .seqfile import member_text, sequence_json


def cmd_gen(args) -> int:
    family, coeffs, lam, column = appell.family_terms(**build_flags(args))
    check_digits(column, coeffs.values)
    if args.format == "json":
        members = appell.transferred_terms(column, coeffs)
        out = sequence_json(family, coeffs, lam, members, array=iter)
        if args.float:
            out["coeffs_approx"] = [approximate(c, "--float") for c in coeffs.values]
    elif args.format == "csv":
        rows = lambda: ((k, i, j, a)
                        for k, member in enumerate(appell.transferred_terms(column, coeffs))
                        for (i, j), a in member)
        out = csv_lines(["k", "i", "j", "a"], rows, args.float)
    else:
        head = f"family: {family}  n: {coeffs.n}  m: {coeffs.m}  s: {coeffs.shift}\n"
        head += "" if lam is None else f"lambda: {lam}\n"
        head += "coeffs: " + ", ".join(map(str, coeffs.values)) + "\n"
        members = appell.transferred_terms(column, coeffs)
        out = chain([head], (f"phi_{k} = {member_text(t)}\n" for k, t in enumerate(members)))
    emit(out, args.output)
    return 0

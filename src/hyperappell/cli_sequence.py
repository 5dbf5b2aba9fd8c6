"""The sequence of `gen`, `verify` and `eval`: built from flags, or read from an --input file.

A sequence from flags is drawn member by member from its series column;
only an --input file runs the file reader, `seqfile.from_json`.
"""

from __future__ import annotations

import os
import stat

# appell runs on first use, as every layer (see the package docstring); cli.SIZE_BUDGET is read
# at each use, so the one budget holds here too
from . import appell, cli
from .rationals import read_rational

# Sequence flags that --input replaces; unset they are None and the library default applies.
BUILD_FLAGS = {"family": "--family", "lam": "--lambda", "c0": "--c0", "shift": "--shift"}
# The most bytes an --input file may hold: 300 per term, as `gen --n 3 --m 1412`, the largest
# canonical file within SIZE_BUDGET, spends about 280; its values are counted apart, 5 per term.
INPUT_BUDGET = 300 * cli.SIZE_BUDGET


def build_flags(args) -> dict:
    """The keyword arguments of `family_terms`, after the size check."""
    if args.n is None or args.m is None:
        raise ValueError("--n and --m are required when --input is not given")
    given = {key: getattr(args, key) for key in BUILD_FLAGS if getattr(args, key) is not None}
    for key in ("c0", "lam"):
        if key in given:
            given[key] = read_rational(given[key], BUILD_FLAGS[key])
    # a transfer family's member k holds up to C(k+2, 2) terms, phi_k only k+1
    estimate = cli.triangle(args.m)
    if given.get("family", "canonical") != "canonical":
        estimate = estimate * (args.m + 3) // 3
    cli.check_size("--m", args.m, estimate, "terms")
    return {"n": args.n, "m": args.m, **given}


def load_sequence(args):
    """The sequence of the flags or of --input, and the series column it was drawn from, if any."""
    if args.input is None:
        family, coeffs, lam, column = appell.family_terms(**build_flags(args))
        seq = appell.AppellSequence(family, appell.family_members(column, coeffs), coeffs, lam)
        return seq, column
    if args.n is not None or args.m is not None:
        raise ValueError("--input replaces --n/--m; give one or the other")
    for key, flag in BUILD_FLAGS.items():
        if getattr(args, key) is not None:
            raise ValueError(f"{flag} does not apply to --input: the file fixes the sequence")
    # json and the file reader, which a sequence from flags never runs, load before the text is held
    import json

    from .seqfile import from_json

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
    if values > 5 * cli.SIZE_BUDGET:
        raise ValueError(f"{args.input} holds {values} commas and opening brackets, more than"
                         f" the {5 * cli.SIZE_BUDGET} allowed for {cli.SIZE_BUDGET} terms")
    try:
        # the text goes before the terms are loaded
        payload, text = json.loads(text), None
        seq = from_json(payload)
    except RecursionError:
        raise ValueError(f"{args.input} is not a valid sequence file: nested too deeply")
    except ValueError as exc:
        raise ValueError(f"{args.input} is not a valid sequence file: {exc}")
    if seq.n >= cli.SIZE_BUDGET:  # a failure witness prints n + 1 exponents
        raise ValueError(f"{args.input} has n = {seq.n}, more than the {cli.SIZE_BUDGET - 1}"
                         " allowed for --input")
    return seq, None

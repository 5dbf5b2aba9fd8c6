"""`verify`: certify a sequence from flags or from an --input file, and report each degree."""

from __future__ import annotations

from . import clifford, operators  # run on first use: clifford only for a pretty witness
from .cli import emit
from .cli_sequence import load_sequence


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
    if report.family_mismatch:
        mismatch = report.family_mismatch
        lines.append(f"family: FAIL at k={mismatch['k']}  constant term expected"
                     f" {mismatch['expected']}  found {mismatch['found']}")
    lines.append("result: " + ("PASS" if report.ok else "FAIL"))
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    seq, column = load_sequence(args)
    report = operators.certify(seq, column)
    out = report.to_json() if args.format == "json" else _pretty_report(report, seq.m)
    emit(out, args.output)
    return 0 if report.ok else 1

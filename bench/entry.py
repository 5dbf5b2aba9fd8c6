"""Run one measured hyperappell command, or only its import, in this process.

    python bench/entry.py REPORT.json plain  -- <hyperappell arguments>
    python bench/entry.py REPORT.json trace  -- <hyperappell arguments>
    python bench/entry.py REPORT.json import

``plain`` behaves like ``python -m hyperappell <arguments>``: it calls
``hyperappell.cli.main`` with the same stdout, stderr and exit status.
``trace`` does the same with the wrappers of ``tracer.py`` installed.
``import`` only imports ``hyperappell.cli``, the set-up every command pays.

Around that work the process times a fixed calibration loop, once before
and once after, in wall and in CPU time, and writes these times to
REPORT.json (with the trace, when traced).  On a shared machine one process
can run up to 2x slower than the next, depending on where it is scheduled;
a loop timed inside the same process tracks that speed, so run.py can
subtract the loops and scale the rest to a fixed reference speed.
"""

import json
import sys
import time
from fractions import Fraction

CALIBRATION_STEPS = 7000


def calibrate(report: dict) -> None:
    """Time a fixed amount of pure-Python rational arithmetic."""
    start, start_cpu = time.perf_counter(), time.process_time()
    acc = Fraction(0)
    for i in range(1, CALIBRATION_STEPS):
        acc += Fraction(1, i % 97 + 1)
    report["calibration_wall"].append(time.perf_counter() - start)
    report["calibration_cpu"].append(time.process_time() - start_cpu)


def main() -> int:
    report_path, mode = sys.argv[1], sys.argv[2]
    argv = sys.argv[4:]
    report = {"calibration_wall": [], "calibration_cpu": []}
    calibrate(report)
    start = time.perf_counter()
    import hyperappell.cli

    report["import_s"] = time.perf_counter() - start
    code = 0
    try:
        if mode != "import":
            if mode == "trace":
                import tracer

                active = tracer.Tracer()
                tracer.install(active, sys.modules["hyperappell"])
            sys.argv = ["hyperappell"] + argv
            try:
                code = hyperappell.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
            sys.stdout.flush()
    finally:
        # Written even when the command raises, which then exits 1 with its
        # traceback, as under python -m hyperappell.
        if mode == "trace":
            report.update(tracer.trace_report(active, sys.modules["hyperappell"]))
        calibrate(report)
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

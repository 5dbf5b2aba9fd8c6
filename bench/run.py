"""Benchmark of the hyperappell command line, end to end and per layer.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and measures that checkout's
``src/`` through the real CLI, one process per command: ``entry.py`` calls
``hyperappell.cli.main`` as ``python -m hyperappell`` does, between two
timings of a calibration loop that let every time be scaled to a fixed
reference speed (see ``entry.py``).  One client runs a closed loop: each
command starts after the previous one exits, in a fixed order.  A pass is
one run through a workload's command list; an operation is one command.

Workloads (the seed draws lambda values, points and corruption sites; the
(n, m) grids are fixed so cost stays comparable across seeds):

* ``certify``: ``verify`` built from flags, once per family plus a high-n
  case.  Time goes to multivariate expansion, operators, polynomials and
  Clifford products; cost grows with n.
* ``transfer``: ``matrices --m 56`` for every transfer family and a Pascal
  matrix, and two ``gen --m 32``.  Time goes to the triangular builders,
  ``apply_transfer`` and large JSON writes; no operators are called.
* ``roundtrip``: ``gen --output``, ``verify --input`` on the intact and on
  a seeded corruption of each file, ``eval --input``, two ``exp`` and two
  usage errors.  Reads, certify's failure path and numeric Clifford
  evaluation with growing numerators.

Every output is checked outside the timed region against ``oracles.py``,
which shares no code with the program.  Outputs must be byte-identical
across the passes of a run and, for the default seed, match the digests
pinned in ``baseline.json``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median wall time
of a process that imports ``hyperappell.cli`` and exits), ``pass_s`` (median
pass wall time), ``cpu_s`` (median over passes of the children's summed
user+sys time) and ``peak_rss_mb`` (median over passes of the largest
single-command peak RSS).  Times are speed-adjusted; the raw pass wall is
printed beside them.  ``--trace 1`` alternates untraced passes with
passes run through ``entry.py trace`` and reports per-layer metrics and the
tracing overhead.  The last line of stdout is one JSON object; the lines
before it are a readable table, one row per command with its (n, m,
family), and the same report is written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
WORKLOADS = ("certify", "transfer", "roundtrip")
SETUP_SAMPLES_PER_PASS = 4
# Typical time of entry.calibrate() on the machine that recorded baseline.json.
# Every reported time is scaled by REFERENCE_CALIBRATION_S over the mean loop
# time measured inside the same process, so the process's speed cancels.
REFERENCE_CALIBRATION_S = 0.03
LAYERS = ("rationals", "clifford", "trimatrix", "polynomials", "appell", "operators", "cli")
# Report of a process that died without writing one: reference speed, no spans.
UNMEASURED = {
    "calibration_wall": [REFERENCE_CALIBRATION_S, REFERENCE_CALIBRATION_S],
    "calibration_cpu": [REFERENCE_CALIBRATION_S, REFERENCE_CALIBRATION_S],
    "import_s": 0.0,
    "stats": {},
    "spans": [],
    "vector_power_expansion_cache": {"hits": 0, "misses": 0},
    "expand_terms_out": 0,
}


@dataclass
class Command:
    label: str
    argv: list[str]
    shape: dict
    check: Callable[[bytes, bytes], None]
    expect_exit: int = 0
    output_file: Path | None = None


@dataclass
class Outcome:
    exit: int
    out: bytes
    err: bytes
    wall: float
    cpu: float
    rss_kb: int
    report: dict

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.out).hexdigest()

    @property
    def raw_wall(self) -> float:
        """Wall time of the process minus its two calibration loops."""
        return self.wall - sum(self.report["calibration_wall"])

    @property
    def speed(self) -> float:
        """Factor that scales this process's wall times to the reference speed."""
        return REFERENCE_CALIBRATION_S / statistics.mean(self.report["calibration_wall"])

    @property
    def adjusted_wall(self) -> float:
        return self.raw_wall * self.speed

    @property
    def adjusted_cpu(self) -> float:
        """CPU time minus the loops, scaled by the loops' CPU time.

        Time the process spends descheduled stretches a loop's wall time but
        not its CPU time, so CPU time is scaled by the CPU-time loops.
        """
        loops = self.report["calibration_cpu"]
        return (self.cpu - sum(loops)) * REFERENCE_CALIBRATION_S / statistics.mean(loops)


@dataclass
class PassResult:
    outcomes: list[Outcome]
    traced: bool

    @property
    def raw_wall(self) -> float:
        return sum(o.raw_wall for o in self.outcomes)

    @property
    def wall(self) -> float:
        return sum(o.adjusted_wall for o in self.outcomes)

    @property
    def cpu(self) -> float:
        return sum(o.adjusted_cpu for o in self.outcomes)

    @property
    def peak_rss_mb(self) -> float:
        return max(o.rss_kb for o in self.outcomes) / 1024


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{label}: {reason}")


# -- seeded inputs ---------------------------------------------------------
#
# Every rational is passed as --flag=value: with a space, argparse reads a
# leading "-" as an option and refuses "--lambda -3/5" (exit 2, "expected
# one argument").  Draws come from narrow ranges so that bit sizes, and with
# them cost, vary little from seed to seed.


def _negative_rational(rng: random.Random) -> Fraction:
    q = rng.choice((7, 9))
    p = rng.choice([p for p in range(2, 7) if Fraction(p, q).denominator == q])
    return Fraction(-p, q)


def _coordinate(rng: random.Random, q: int) -> Fraction:
    p = rng.randint(q // 2, q - 1)
    return Fraction(rng.choice((-1, 1)) * p, q)


def _point(rng: random.Random, n: int, x0: bool = True) -> list[Fraction]:
    q = rng.choice((11, 13))
    head = _coordinate(rng, q) if x0 else Fraction(0)
    return [head] + [_coordinate(rng, q) for _ in range(n)]


def _point_flag(point: list[Fraction]) -> str:
    return "--point=" + ",".join(str(c) for c in point)


def _shape(n, m, family) -> dict:
    return {"n": n, "m": m, "family": family}


def _lambda_flag(lam) -> list[str]:
    return [] if lam is None else [f"--lambda={lam}"]


def _verify_flags(n: int, m: int, family: str, lam=None) -> list[str]:
    return ["verify", "--n", str(n), "--m", str(m), "--family", family] + _lambda_flag(lam)


def certify_commands(rng: random.Random, work: Path) -> list[Command]:
    lam = _negative_rational(rng)
    grid = [
        (2, 14, "canonical", None),
        (3, 12, "bernoulli", None),
        (4, 10, "euler", None),
        (5, 10, "hermite", None),
        (3, 12, "frobenius-euler", lam),
        (8, 8, "canonical", None),
    ]
    return [
        Command(
            label=f"verify {family} n={n} m={m}",
            argv=_verify_flags(n, m, family, lam_),
            shape=_shape(n, m, family),
            check=lambda out, err, n=n, m=m, family=family: oracles.check_verify_pass(
                out, n, m, family
            ),
        )
        for n, m, family, lam_ in grid
    ]


def transfer_commands(rng: random.Random, work: Path) -> list[Command]:
    m = 56
    lam_matrix = _negative_rational(rng)
    x0 = _negative_rational(rng)
    lam_gen = _negative_rational(rng)
    commands = []
    for family, lam in (
        ("bernoulli", None),
        ("hermite", None),
        ("euler", None),
        ("frobenius-euler", lam_matrix),
    ):
        moments = oracles.family_moments(family, m, lam)
        commands.append(
            Command(
                label=f"matrices {family} m={m}",
                argv=["matrices", "--m", str(m), "--family", family] + _lambda_flag(lam),
                shape=_shape(None, m, family),
                check=lambda out, err, moments=moments: oracles.check_matrix(out, m, moments),
            )
        )
    pascal = oracles.pascal_moments(x0, m)
    commands.append(
        Command(
            label=f"matrices pascal m={m}",
            argv=["matrices", "--m", str(m), f"--pascal={x0}"],
            shape=_shape(None, m, "pascal"),
            check=lambda out, err: oracles.check_matrix(out, m, pascal),
        )
    )
    for n, family, lam in ((2, "bernoulli", None), (4, "frobenius-euler", lam_gen)):
        commands.append(
            Command(
                label=f"gen {family} n={n} m=32",
                argv=["gen", "--n", str(n), "--m", "32", "--family", family] + _lambda_flag(lam),
                shape=_shape(n, 32, family),
                check=lambda out, err, n=n, family=family, lam=lam: oracles.check_gen(
                    out, n, 32, family, lam
                ),
            )
        )
    return commands


def roundtrip_commands(rng: random.Random, work: Path) -> list[Command]:
    n, m = 3, 10
    families = (("bernoulli", None), ("frobenius-euler", _negative_rational(rng)))
    commands = []
    for family, lam in families:
        path = work / f"{family}.json"
        commands.append(
            Command(
                label=f"gen --output {family} n={n} m={m}",
                argv=["gen", "--n", str(n), "--m", str(m), "--family", family]
                + _lambda_flag(lam)
                + ["--output", str(path)],
                shape=_shape(n, m, family),
                check=lambda out, err, family=family, lam=lam: oracles.check_gen(
                    out, n, m, family, lam
                ),
                output_file=path,
            )
        )
    for family, _ in families:
        commands.append(
            Command(
                label=f"verify --input {family}",
                argv=["verify", "--input", str(work / f"{family}.json")],
                shape=_shape(n, m, family),
                check=lambda out, err, family=family: oracles.check_verify_pass(
                    out, n, m, family
                ),
            )
        )
    for family, _ in families:
        degree = rng.randint(1, m)
        commands.append(
            Command(
                label=f"verify --input corrupted {family}",
                argv=["verify", "--input", str(work / f"{family}-corrupted.json")],
                shape=_shape(n, m, family) | {"corrupted_degree": degree},
                check=lambda out, err, degree=degree: oracles.check_verify_witness(
                    out, m, degree
                ),
                expect_exit=1,
            )
        )
    for family, lam in families:
        point = _point(rng, n)
        commands.append(
            Command(
                label=f"eval --input {family}",
                argv=["eval", "--input", str(work / f"{family}.json"), _point_flag(point)],
                shape=_shape(n, m, family),
                check=lambda out, err, family=family, lam=lam, point=point: oracles.check_eval(
                    out, n, m, family, lam, point
                ),
            )
        )
    for exp_n, order, x0 in ((4, 120, True), (1, 300, False)):
        point = _point(rng, exp_n, x0=x0)
        commands.append(
            Command(
                label=f"exp n={exp_n} order={order}",
                argv=["exp", "--n", str(exp_n), _point_flag(point), "--order", str(order)],
                shape=_shape(exp_n, order, "exp"),
                check=lambda out, err, exp_n=exp_n, order=order, point=point: oracles.check_exp(
                    out, exp_n, order, point
                ),
            )
        )
    commands.append(
        Command(
            label="usage error --lambda=1",
            argv=_verify_flags(n, m, "frobenius-euler", 1),
            shape=_shape(n, m, "frobenius-euler"),
            check=oracles.check_usage_error,
            expect_exit=2,
        )
    )
    commands.append(
        Command(
            label="usage error missing degree",
            argv=["verify", "--input", str(work / "missing-degree.json")],
            shape=_shape(n, m, "bernoulli"),
            check=oracles.check_usage_error,
            expect_exit=2,
        )
    )
    return commands


def roundtrip_prepare(commands: list[Command], spawner: Spawner, rng: random.Random) -> None:
    """Write the corrupted and the degree-missing copies of the gen files.

    Runs the two gen commands once, untimed, then edits their output: one
    term coefficient of the seeded degree gets a seeded rational added, and
    for the second file one seeded middle degree is dropped.
    """
    work = spawner.work
    for cmd in commands:
        if cmd.output_file is not None:
            run_command(cmd, spawner)
    for cmd in commands:
        if "corrupted_degree" not in cmd.shape:
            continue
        family, degree = cmd.shape["family"], cmd.shape["corrupted_degree"]
        doc = json.loads((work / f"{family}.json").read_text(encoding="utf-8"))
        terms = [t for t in doc["polys"][degree]["terms"] if (t["i"], t["j"]) != (0, 0)]
        term = rng.choice(terms)
        term["a"] = str(Fraction(term["a"]) + Fraction(1, rng.choice((3, 5, 7))))
        (work / f"{family}-corrupted.json").write_text(json.dumps(doc), encoding="utf-8")
    doc = json.loads((work / "bernoulli.json").read_text(encoding="utf-8"))
    drop = rng.randint(1, doc["m"] - 1)
    doc["polys"] = [p for p in doc["polys"] if p["k"] != drop]
    (work / "missing-degree.json").write_text(json.dumps(doc), encoding="utf-8")


COMMANDS = {
    "certify": certify_commands,
    "transfer": transfer_commands,
    "roundtrip": roundtrip_commands,
}


# -- running commands ------------------------------------------------------


def child_env() -> dict:
    """The caller's environment, this checkout's src/, the default threads."""
    env = dict(os.environ)
    env.pop("HYPERAPPELL_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


class Spawner:
    """Runs commands through spawn.py, a small helper process (see there).

    One closed-loop client: each call blocks until its command has exited.
    """

    def __init__(self, work: Path):
        self.work = work
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        )

    def run(self, argv: list[str]) -> tuple[int, bytes, bytes, float, float, int]:
        """(exit, stdout, stderr, wall, cpu, peak rss in KiB) of one command."""
        out_path, err_path = self.work / "stdout.bin", self.work / "stderr.txt"
        request = {"argv": argv, "stdout": str(out_path), "stderr": str(err_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawn helper exited")
        reply = json.loads(line)
        return (
            reply["exit"], out_path.read_bytes(), err_path.read_bytes(),
            reply["wall"], reply["cpu"], reply["rss_kb"],
        )

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_command(cmd: Command, spawner: Spawner, trace: bool = False) -> Outcome:
    report_path = spawner.work / "entry.json"
    mode = "trace" if trace else "plain"
    prefix = [sys.executable, str(BENCH / "entry.py"), str(report_path), mode, "--"]
    for stale in (report_path, cmd.output_file):
        if stale is not None and stale.exists():
            stale.unlink()
    code, out, err, wall, cpu, rss = spawner.run(prefix + cmd.argv)
    if cmd.output_file is not None:
        # The written file is this command's output; stdout must stay empty.
        written = cmd.output_file.read_bytes() if cmd.output_file.exists() else b""
        out = written if not out else out + b"\n<stdout not empty>"
    if report_path.exists():
        report = json.loads(report_path.read_text(encoding="utf-8"))
    else:  # killed before it could write one; the operation fails on its exit status
        report = UNMEASURED
    return Outcome(code, out, err, wall, cpu, rss, report)


def run_pass(commands: list[Command], spawner: Spawner, trace: bool = False) -> PassResult:
    return PassResult([run_command(cmd, spawner, trace) for cmd in commands], trace)


def time_import(spawner: Spawner) -> Outcome:
    """A process that imports hyperappell.cli and exits."""
    report_path = spawner.work / "entry.json"
    code, out, err, wall, cpu, rss = spawner.run(
        [sys.executable, str(BENCH / "entry.py"), str(report_path), "import"]
    )
    if code != 0:
        raise RuntimeError(f"importing hyperappell.cli failed: {err.decode(errors='replace')}")
    return Outcome(code, out, err, wall, cpu, rss, json.loads(report_path.read_text("utf-8")))


# -- correctness -----------------------------------------------------------


def oracle_check(cmd: Command, outcome: Outcome, pinned: dict | None) -> str | None:
    """Full oracle check of one output; a reason string on failure."""
    if outcome.exit != cmd.expect_exit:
        tail = outcome.err.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit {outcome.exit}, expected {cmd.expect_exit} {tail}"
    try:
        cmd.check(outcome.out, outcome.err)
    except oracles.Mismatch as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {exc!r}"
    if pinned is not None and pinned.get(cmd.label) != outcome.digest:
        return "stdout differs from the digest pinned at the seed commit"
    return None


def judge(commands, result: PassResult, checked: dict, tally: Tally) -> None:
    """Count each operation: exit status and byte-identity with the checked output.

    ``checked`` maps a command's label to (digest of the warm-up output,
    the oracle's failure reason or None).
    """
    for cmd, outcome in zip(commands, result.outcomes):
        digest, failure = checked[cmd.label]
        if failure is not None:
            reason = failure
        elif outcome.exit != cmd.expect_exit:
            reason = f"exit {outcome.exit}, expected {cmd.expect_exit}"
        elif outcome.digest != digest:
            reason = "stdout differs from an earlier pass" + (" (traced)" if result.traced else "")
        else:
            reason = None
        tally.record(cmd.label, reason)


# -- per-layer metrics -------------------------------------------------------

LAYER_METRICS = [
    ("rationals.parse_rational", ("calls", "self_s")),
    ("clifford.Multivector.__mul__", ("calls", "self_s")),
    ("clifford.Multivector.__add__", ("calls", "self_s")),
    ("clifford.blade_product", ("calls", "self_s")),
    ("clifford.vector_power", ("calls", "self_s")),
    ("polynomials.CliffordPoly.__init__", ("calls", "self_s")),
    ("polynomials.CliffordPoly.__add__", ("calls", "self_s")),
    ("polynomials.CliffordPoly.partial", ("calls", "self_s")),
    ("polynomials.CliffordPoly.map_coefficients", ("self_s",)),
    ("appell.vector_power_expansion", ("calls", "self_s")),
    ("appell.expand_multivariate", ("calls", "self_s", "total_s")),
    ("appell.coefficient_sequence", ("self_s",)),
    ("appell.build_phi", ("self_s",)),
    ("appell.apply_transfer", ("self_s",)),
    ("appell.AppellSequence.to_json", ("self_s",)),
    ("appell.eval_poly", ("calls", "self_s")),
    ("appell.exp_truncated", ("self_s",)),
    ("appell.AppellSequence.from_json", ("self_s",)),
    ("trimatrix.TriMatrix.__matmul__", ("calls", "self_s")),
    ("trimatrix.TriMatrix.apply", ("self_s",)),
    ("trimatrix.tri_inverse", ("self_s",)),
    ("trimatrix.bernoulli_transfer", ("self_s",)),
    ("trimatrix.hermite_transfer", ("self_s",)),
    ("trimatrix.frobenius_euler_transfer", ("self_s",)),
    ("trimatrix.pascal_matrix", ("self_s",)),
    ("operators.certify", ("self_s",)),
    ("operators.check_monogenic", ("self_s",)),
    ("operators.check_appell", ("self_s",)),
    ("operators.check_intertwining", ("self_s",)),
    ("operators.dirac", ("calls", "self_s")),
    ("operators.cr", ("self_s",)),
    ("operators.cr_bar", ("self_s",)),
    ("cli.main", ("total_s", "self_s")),
]
UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "wall_s": "s"}


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def pass_layers(commands: list[Command], result: PassResult) -> dict[str, float]:
    """Per-layer figures of one traced pass, summed over its commands."""
    stats: dict[str, dict] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    hits = lookups = terms_out = 0
    expand_wall = 0.0
    imports = []
    for outcome in result.outcomes:
        report, speed = outcome.report, outcome.speed
        imports.append(report["import_s"] * speed)
        for name, stat in report["stats"].items():
            acc = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            acc["calls"] += stat["calls"]
            acc["self_s"] += stat["self_s"] * speed
            acc["total_s"] += stat["total_s"] * speed
            layer_self[name.split(".", 1)[0]] += stat["self_s"] * speed
        cache = report["vector_power_expansion_cache"]
        hits += cache["hits"]
        lookups += cache["hits"] + cache["misses"]
        terms_out += report["expand_terms_out"]
        expand_wall += speed * _union_length(
            [(s[3], s[4]) for s in report["spans"] if s[1] == "appell.expand_multivariate"]
        )
    degrees = sum(
        cmd.shape["m"] + 1
        for cmd, outcome in zip(commands, result.outcomes)
        if cmd.argv[0] == "verify" and outcome.exit in (0, 1)
    )
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    out: dict[str, float] = {}
    for name, keys in LAYER_METRICS:
        for key in keys:
            out[f"{name}.{key}"] = stats.get(name, zero)[key]
    expand_calls = stats.get("appell.expand_multivariate", zero)["calls"]
    out["appell.expand_multivariate.wall_s"] = expand_wall
    out["appell.expand_multivariate.terms_out"] = terms_out
    out["appell.vector_power_expansion.hit_ratio"] = hits / lookups if lookups else 0.0
    out["operators.expansions_per_degree"] = expand_calls / degrees if degrees else 0.0
    out["cli.stdout_bytes"] = sum(len(o.out) for o in result.outcomes)
    out["cli.import_s"] = statistics.median(imports)
    total_self = sum(layer_self.values())
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = layer_self[layer]
        out[f"layer.{layer}.self_share"] = layer_self[layer] / total_self if total_self else 0.0
    return out


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat in UNITS:
        return UNITS[stat]
    return {"terms_out": "count", "stdout_bytes": "bytes", "import_s": "s"}.get(stat, "ratio")


# -- a run -------------------------------------------------------------------


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = BENCH / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spawner = Spawner(work)
    try:
        return _run_workload(name, seed, seconds, trace, spawner)
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(name: str, seed: int, seconds: float, trace: bool, spawner: Spawner) -> dict:
    work = spawner.work
    rng = random.Random(f"{name}:{seed}")
    commands = COMMANDS[name](rng, work)
    loadavg_before = _loadavg()
    if name == "roundtrip":
        roundtrip_prepare(commands, spawner, rng)
    pinned = None
    if seed == DEFAULT_SEED:
        baseline = json.loads((BENCH / "baseline.json").read_text(encoding="utf-8"))
        pinned = baseline["digests"][name]

    # Untimed warm-up: compiles .pyc files and yields the outputs the oracles check.
    warm = run_pass(commands, spawner)
    checked = {
        cmd.label: (outcome.digest, oracle_check(cmd, outcome, pinned))
        for cmd, outcome in zip(commands, warm.outcomes)
    }

    tally = Tally()
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    setup: list[Outcome] = []
    start = time.perf_counter()
    while True:
        if not trace:
            setup.extend(time_import(spawner) for _ in range(SETUP_SAMPLES_PER_PASS))
        plain.append(run_pass(commands, spawner))
        judge(commands, plain[-1], checked, tally)
        if trace:
            traced.append(run_pass(commands, spawner, trace=True))
            judge(commands, traced[-1], checked, tally)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:  # the next round would overrun
            break

    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "git_sha": _git_sha(),
            "loadavg_before": loadavg_before,
            "loadavg_after": _loadavg(),
        },
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.reasons,
        "output_digests": {
            cmd.label: outcome.digest for cmd, outcome in zip(commands, warm.outcomes)
        },
        "samples": {"passes": len(plain), "traced_passes": len(traced), "setup": len(setup)},
        "pass_s_samples": [p.wall for p in plain],
        "raw_pass_wall_s_samples": [p.raw_wall for p in plain],
        "traced_pass_s_samples": [p.wall for p in traced],
        "setup_s_samples": [o.adjusted_wall for o in setup],
        "raw_setup_wall_s_samples": [o.raw_wall for o in setup],
        "calibration_s_samples": [
            c for p in plain for o in p.outcomes for c in o.report["calibration_wall"]
        ],
    }
    rows = []
    for i, cmd in enumerate(commands):
        row = {"command": cmd.label, **cmd.shape, "exit": warm.outcomes[i].exit}
        row["wall_s"] = statistics.median(p.outcomes[i].adjusted_wall for p in plain)
        row["cpu_s"] = statistics.median(p.outcomes[i].adjusted_cpu for p in plain)
        row["peak_rss_mb"] = statistics.median(p.outcomes[i].rss_kb for p in plain) / 1024
        if traced:
            row["traced_wall_s"] = statistics.median(p.outcomes[i].adjusted_wall for p in traced)
            row["self_s_by_layer"] = {
                layer: statistics.median(
                    p.outcomes[i].speed * sum(
                        stat["self_s"]
                        for fn, stat in p.outcomes[i].report["stats"].items()
                        if fn.split(".", 1)[0] == layer
                    )
                    for p in traced
                )
                for layer in LAYERS
            }
        rows.append(row)
    report["rows"] = rows

    if trace:
        per_pass = [pass_layers(commands, p) for p in traced]
        # median_low keeps counts whole: an observed value, never an average of two.
        metrics = {
            key: {
                "value": statistics.median_low(values[key] for values in per_pass),
                "unit": layer_unit(key),
            }
            for key in per_pass[0]
        }
        metrics["rationals.max_bits"] = {
            "value": max(oracles.max_bits(o.out) for o in warm.outcomes),
            "unit": "bits",
        }
        plain_s = statistics.median(p.wall for p in plain)
        traced_s = statistics.median(p.wall for p in traced)
        metrics["trace.pass_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead"] = {"value": traced_s / plain_s, "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(o.adjusted_wall for o in setup), "unit": "s"},
            "pass_s": {"value": statistics.median(p.wall for p in plain), "unit": "s"},
            "cpu_s": {"value": statistics.median(p.cpu for p in plain), "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(p.peak_rss_mb for p in plain),
                "unit": "MB",
            },
        }
    report["metrics"] = metrics
    report["failed_frac"] = tally.failed / tally.attempted
    return report


def print_table(report: dict) -> None:
    name, samples = report["workload"], report["samples"]
    env = report["environment"]
    print(
        f"# {name} seed={report['seed']} trace={report['trace']} python={env['python']} "
        f"nproc={env['nproc']} sha={env['git_sha'][:12]} "
        f"loadavg={env['loadavg_before']!r} -> {env['loadavg_after']!r}"
    )
    counts = {
        "setup_s": samples["setup"],
        "pass_s": samples["passes"],
        "cpu_s": samples["passes"],
        "peak_rss_mb": samples["passes"],
    }
    for key, metric in report["metrics"].items():
        count = counts.get(key, samples["traced_passes"] if report["trace"] else samples["passes"])
        print(f"{name:10s} {key:48s} {metric['value']:>14.6g} {metric['unit']:6s} (n={count})")
    raw = report["raw_pass_wall_s_samples"]
    print(
        f"{name:10s} {'raw pass wall (not speed-adjusted)':48s} "
        f"{statistics.median(raw):>14.6g} {'s':6s} (n={len(raw)})"
    )
    calibration = report["calibration_s_samples"]
    print(
        f"{name:10s} {'calibration loop':48s} "
        f"{statistics.median(calibration):>14.6g} {'s':6s} (n={len(calibration)}, "
        f"reference {REFERENCE_CALIBRATION_S})"
    )
    print(
        f"{name:10s} {'failed_frac':48s} {report['failed_frac']:>14.6g} {'ratio':6s} "
        f"({report['failed']} of {report['attempted']} operations)"
    )
    for reason in report["failures"]:
        print(f"{name:10s} FAILED {reason}")
    for row in report["rows"]:
        print(
            f"{name:10s} row n={row['n']!s:4s} m={row['m']!s:4s} {row['family']:16s} "
            f"{row['wall_s']:8.4f} s  {row['cpu_s']:8.4f} cpu_s  "
            f"{row['peak_rss_mb']:6.1f} MB  {row['command']}"
        )


def write_report(report: dict) -> None:
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hyperappell" / "__init__.py").is_file():
        print(f"error: no hyperappell sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        write_report(report)
        print_table(report)
        reports.append(report)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

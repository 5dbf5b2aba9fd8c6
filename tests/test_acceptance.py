"""Release acceptance checklist.

Ten end-to-end criteria, one test each, executed in order.  Every test
prints a single pass/fail line directly to the terminal (capture is
bypassed) so a plain ``pytest -v`` run shows the checklist alongside the
usual outcome markers.  Checks are exact; the only tolerances here are
the wall-clock budgets asserted where a criterion carries one.

Criterion 10 shells out to the installed command-line entry point and
compares output bytes against the frozen files under tests/golden/.
"""

import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from checkout import spawn_env
from oracles import bernoulli_polys, euler_polys_inverse, hermite_polys_series
from hyperappell import (
    CliffordPoly,
    Multivector,
    Paravector,
    blade_product,
    build_family,
    build_phi,
    check_appell,
    check_intertwining,
    check_monogenic,
    check_xi_derivation,
    coefficient_sequence,
    creation_matrix,
    derivation_matrix,
    eval_at,
    expand_sequence,
    nilpotent_exp,
    pascal_matrix,
    restrict_real,
    vector_power,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

# Flags that produced each frozen file; criterion 10 re-runs these.
GOLDEN_COMMANDS = {
    "gen_canonical_n2_m4.json": ("gen", "--n", "2", "--m", "4"),
    "gen_hermite_n2_m2.json": ("gen", "--n", "2", "--m", "2", "--family", "hermite"),
    "gen_canonical_n1_m3.csv": ("gen", "--n", "1", "--m", "3", "--format", "csv"),
    "matrices_h_m3.json": ("matrices", "--m", "3"),
    "matrices_tilde_n2_m3.json": ("matrices", "--n", "2", "--m", "3", "--tilde"),
    "matrices_bernoulli_m2.json": ("matrices", "--m", "2", "--family", "bernoulli"),
    "verify_canonical_n2_m5.json": ("verify", "--n", "2", "--m", "5"),
    "eval_bernoulli_n2_m4.json": ("eval", "--n", "2", "--m", "4", "--family", "bernoulli",
                                  "--point", "1/2,-1,2"),
    "eval_hermite_n2_m5.json": ("eval", "--n", "2", "--m", "5", "--family", "hermite",
                                "--point", "0,1,-1"),
    "eval_fe_neg4_7_n3_m6_float.csv": ("eval", "--n", "3", "--m", "6", "--family",
                                       "frobenius-euler", "--lambda=-4/7",
                                       "--point=-3/5,1,0,2/3", "--format", "csv", "--float"),
    "exp_n2_order6.csv": ("exp", "--n", "2", "--point", "1,1/2,-1", "--order", "6",
                          "--format", "csv"),
    "verify_euler_n2_m4.txt": ("verify", "--n", "2", "--m", "4", "--family", "euler",
                               "--format", "pretty"),
    "gen_fe_neg4_7_n2_m3.txt": ("gen", "--n", "2", "--m", "3", "--family", "frobenius-euler",
                                "--lambda=-4/7", "--format", "pretty"),
}


@pytest.fixture
def report(capfd):
    @contextmanager
    def _report(num: int, label: str):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"acceptance {num:2d}/10  {label}: FAIL", flush=True)
            raise
        with capfd.disabled():
            print(f"acceptance {num:2d}/10  {label}: PASS", flush=True)

    return _report


def test_criterion_01_full_certification(report):
    with report(1, "canonical certification, n 1..5, m 10"):
        start = time.perf_counter()
        for n in range(1, 6):
            seq = build_family(n, 10)
            mono = check_monogenic(seq)
            ladder = check_appell(seq)
            assert mono.ok, f"monogenicity failed at n={n}"
            assert ladder.ok, f"ladder failed at n={n}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"certification took {elapsed:.2f}s"


def test_criterion_02_intertwining_identity(report):
    with report(2, "intertwining identity, n<=6, s<=3, m<=12"):
        start = time.perf_counter()
        for n in range(1, 7):
            for s in range(0, 4):
                for m in range(0, 13):
                    assert check_intertwining(coefficient_sequence(n, m, shift=s)), (n, s, m)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"intertwining sweep took {elapsed:.2f}s"


def test_criterion_03_xi_derivation(report):
    with report(3, "vector-power derivation rule; n=1 matrix collapse"):
        for n in range(1, 5):
            assert check_xi_derivation(n, 8), f"derivation rule failed at n={n}"
        assert derivation_matrix(1, 8) == creation_matrix(8).scale(-1)


def test_criterion_04_pascal_laws(report):
    with report(4, "Pascal exponential form and semigroup law"):
        start = time.perf_counter()
        m = 10
        h = creation_matrix(m)
        rng = random.Random(41)

        def rand_rational() -> Fraction:
            return Fraction(rng.randint(-40, 40), rng.randint(1, 12))

        for _ in range(100):
            a, b = rand_rational(), rand_rational()
            pa = pascal_matrix(a, m)
            assert nilpotent_exp(h, a) == pa
            assert pa @ pascal_matrix(b, m) == pascal_matrix(a + b, m), (a, b)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"Pascal sweep took {elapsed:.2f}s"


def test_criterion_05_classical_reduction(report):
    with report(5, "real-line restriction matches classical oracles, m 8"):
        oracle_by_family = {
            "bernoulli": bernoulli_polys(8),
            "euler": euler_polys_inverse(8),
            "hermite": hermite_polys_series(8),
        }
        for family, expected in oracle_by_family.items():
            for n in (1, 2, 3):
                seq = build_family(n, 8, family)
                assert restrict_real(seq) == expected, (family, n)


def test_criterion_06_complex_reduction(report):
    with report(6, "n=1 sequence equals binomial powers, k<=10"):
        seq = build_family(1, 10)
        expansions = expand_sequence(seq)
        e1 = Multivector.generator(1, 1)
        for k in range(0, 11):
            # (x0 + e1 x1)^k expanded by hand: e1^j contributes
            # (-1)^(j//2) and keeps an e1 factor for odd j.
            expected = CliffordPoly.zero(1)
            for j in range(0, k + 1):
                sign = -1 if (j // 2) % 2 else 1
                coeff = Multivector.scalar(1, Fraction(sign * math.comb(k, j)))
                if j % 2 == 1:
                    coeff = coeff * e1
                expected = expected + CliffordPoly.monomial(1, (k - j, j), coeff)
            assert expansions[k] == expected, f"k={k}"
        point = Paravector(1, (1,))
        one_plus_e1 = point.to_multivector()
        values = eval_at(seq, point)
        for k in range(0, 11):
            assert values[k] == one_plus_e1 ** k, f"k={k}"


def test_criterion_07_low_degree_values(report):
    with report(7, "phi_1 = x0 + v/n; n=2 coefficient table, m 8"):
        for n in range(1, 7):
            seq = build_family(n, 1)
            assert seq.polys[1].terms == {(1, 0): Fraction(1), (0, 1): Fraction(1, n)}
        table = coefficient_sequence(2, 8)
        assert table.values == (
            Fraction(1),
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(3, 8),
            Fraction(3, 8),
            Fraction(5, 16),
            Fraction(5, 16),
            Fraction(35, 128),
            Fraction(35, 128),
        )


def test_criterion_08_negative_controls(report):
    with report(8, "perturbed coefficients break monogenicity with witness"):
        for n in (1, 2, 3):
            base = coefficient_sequence(n, 6)
            for k in range(1, 7):
                bad = base.with_value(k, base.values[k] + 1)
                result = check_monogenic(build_phi(bad))
                assert not result.ok, (n, k)
                failing = [row for row in result.results if row.monogenic is False]
                assert min(row.k for row in failing) <= k + 1, (n, k)
                assert all(row.witness is not None for row in failing), (n, k)


def test_criterion_09_clifford_core_oracles(report):
    with report(9, "vector powers and blade associativity"):
        rng = random.Random(7)
        for n in range(1, 5):
            for _ in range(3):
                vec = tuple(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)
                )
                x = Paravector(0, vec)
                v = x.vector_to_multivector()
                power = Multivector.scalar(n, 1)
                for j in range(0, 9):
                    assert vector_power(x, j) == power, (n, vec, j)
                    power = power * v
        for n in (1, 2, 3):
            for a in range(1 << n):
                for b in range(1 << n):
                    for c in range(1 << n):
                        s1, ab = blade_product(a, b, n)
                        s2, left = blade_product(ab, c, n)
                        t1, bc = blade_product(b, c, n)
                        t2, right = blade_product(a, bc, n)
                        assert (s1 * s2, left) == (t1 * t2, right), (n, a, b, c)


def test_criterion_10_cli_determinism(report, tmp_path):
    with report(10, "byte-identical output across repeated runs"):
        for name, argv in GOLDEN_COMMANDS.items():
            frozen = (GOLDEN_DIR / name).read_bytes()
            for run in range(3):
                out_path = tmp_path / f"r{run}_{name}"
                proc = subprocess.run(
                    [sys.executable, "-m", "hyperappell", *argv, "--output", str(out_path)],
                    capture_output=True,
                    text=True,
                    env=spawn_env(),
                )
                assert proc.returncode == 0, (name, proc.stderr)
                assert out_path.read_bytes() == frozen, (name, run)

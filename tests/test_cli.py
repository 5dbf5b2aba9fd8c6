import contextlib
import copy
import csv
import gc
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperappell import (
    FAMILIES,
    Paravector,
    appell,
    build_family,
    build_phi,
    certify,
    cli,
    cli_sequence,
    coefficient_sequence,
    creation_matrix,
    derivation_matrix,
    eval_at,
    operators,
    pascal_matrix,
    transfer_matrix,
)
from hyperappell.trimatrix import transfer_column

from test_trimatrix import COLUMN_CASES, STREAM_ORDERS

PKG = "hyperappell"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", PKG, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def gen_json(*args):
    proc = run_cli("gen", *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# -- gen ---------------------------------------------------------------------


def test_gen_canonical_n2_m4():
    payload = gen_json("--n", "2", "--m", "4")
    assert payload["coeffs"] == ["1", "1/2", "1/2", "3/8", "3/8"]
    assert payload["n"] == 2 and payload["m"] == 4
    assert payload["family"] == "canonical" and payload["s"] == 0
    assert payload["lambda"] is None


def test_gen_n1_coeffs_all_one():
    payload = gen_json("--n", "1", "--m", "3")
    assert payload["coeffs"] == ["1"] * 4


def test_gen_hermite_constant_term():
    payload = gen_json("--n", "2", "--m", "2", "--family", "hermite")
    phi2 = next(p for p in payload["polys"] if p["k"] == 2)
    terms = {(t["i"], t["j"]): t["a"] for t in phi2["terms"]}
    assert terms == {(2, 0): "1", (1, 1): "1", (0, 2): "1/2", (0, 0): "-1/2"}


def test_gen_c0_override():
    payload = gen_json("--n", "2", "--m", "2", "--c0", "3/7")
    assert payload["coeffs"] == ["3/7", "3/14", "3/14"]


def test_gen_csv():
    proc = run_cli("gen", "--n", "2", "--m", "1", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "k,i,j,a"
    assert lines[1:] == ["0,0,0,1", "1,1,0,1", "1,0,1,1/2"]


def test_gen_pretty():
    proc = run_cli("gen", "--n", "2", "--m", "2", "--format", "pretty")
    assert proc.returncode == 0
    assert "coeffs: 1, 1/2, 1/2" in proc.stdout
    assert "phi_2 = x0^2 + x0*xv + 1/2*xv^2" in proc.stdout


def test_gen_float_adds_approx():
    payload = gen_json("--n", "2", "--m", "2", "--float")
    assert payload["coeffs_approx"] == [1.0, 0.5, 0.5]


def test_gen_output_file_matches_stdout(tmp_path):
    out = tmp_path / "seq.json"
    proc_file = run_cli("gen", "--n", "2", "--m", "3", "--output", str(out))
    proc_stdout = run_cli("gen", "--n", "2", "--m", "3")
    assert proc_file.returncode == 0
    assert out.read_text() == proc_stdout.stdout


def test_gen_shift_requires_canonical():
    proc = run_cli("gen", "--n", "2", "--m", "3", "--shift", "1", "--family", "bernoulli")
    assert proc.returncode == 2
    assert "canonical" in proc.stderr


def test_gen_usage_errors():
    cases = [
        ("gen", "--n", "2"),  # --m missing
        ("gen", "--n", "0", "--m", "2"),
        ("gen", "--n", "2", "--m", "-1"),
        ("gen", "--n", "2", "--m", "2", "--c0", "0"),
        ("gen", "--n", "2", "--m", "2", "--c0", "0.5"),
        ("gen", "--n", "2", "--m", "2", "--family", "frobenius-euler"),
        ("gen", "--n", "2", "--m", "2", "--family", "frobenius-euler", "--lambda", "1"),
        ("gen", "--n", "2", "--m", "2", "--family", "bernoulli", "--lambda", "2"),
        ("gen", "--n", "2", "--m", "2", "--family", "legendre"),
        ("gen", "--n", "2", "--m", "2", "--shift", "-1"),
    ]
    for case in cases:
        proc = run_cli(*case)
        assert proc.returncode == 2, (case, proc.stderr)


# -- verify ------------------------------------------------------------------


def test_verify_canonical_passes():
    proc = run_cli("verify", "--n", "2", "--m", "6")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["ok"] is True
    assert payload["intertwining"] is True
    assert [r["k"] for r in payload["results"]] == list(range(7))
    assert all(r["monogenic"] and r["ladder"] for r in payload["results"])


def test_verify_bernoulli_passes():
    proc = run_cli("verify", "--n", "2", "--m", "6", "--family", "bernoulli")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


def test_verify_round_trip_all_families(tmp_path):
    families = [
        ("canonical", []),
        ("bernoulli", []),
        ("euler", []),
        ("frobenius-euler", ["--lambda", "2/3"]),
        ("hermite", []),
    ]
    for family, extra in families:
        path = tmp_path / f"{family}.json"
        gen = run_cli("gen", "--n", "2", "--m", "4", "--family", family, *extra,
                      "--output", str(path))
        assert gen.returncode == 0, gen.stderr
        verify = run_cli("verify", "--input", str(path))
        assert verify.returncode == 0, (family, verify.stdout, verify.stderr)


def test_verify_corrupted_input_fails_with_witness(tmp_path):
    payload = gen_json("--n", "2", "--m", "4")
    phi2 = next(p for p in payload["polys"] if p["k"] == 2)
    for term in phi2["terms"]:
        if term["i"] == 0 and term["j"] == 2:
            term["a"] = "7/2"
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(payload))
    proc = run_cli("verify", "--input", str(path))
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["ok"] is False
    bad = next(r for r in report["results"] if not r["monogenic"])
    assert bad["k"] == 2
    assert "witness" in bad and bad["witness"]["coeff"]["terms"]


def test_verify_input_certifies_the_family(tmp_path):
    # every degree of both files passes: only the constant terms p_k(0) = c_0 t_k name the family
    relabelled = gen_json("--n", "2", "--m", "3")
    relabelled["family"] = "bernoulli"
    padded = gen_json("--n", "2", "--m", "3", "--family", "bernoulli")
    padded["polys"][3]["terms"].append({"i": 0, "j": 0, "a": "5"})
    cases = [
        (relabelled, {"k": 1, "expected": "-1/2", "found": "0"}),
        (padded, {"k": 3, "expected": "0", "found": "5"}),
    ]
    for doc, mismatch in cases:
        path = tmp_path / "file.json"
        path.write_text(json.dumps(doc))
        status, out, err = run_main(["verify", "--input", str(path)])
        report = json.loads(out)
        assert (status, err, report["ok"]) == (1, "", False)
        assert report["family_mismatch"] == mismatch
        assert all(r["monogenic"] and r["ladder"] for r in report["results"])
        status, out, _ = run_main(["verify", "--input", str(path), "--format", "pretty"])
        line = (f"family: FAIL at k={mismatch['k']}  constant term expected"
                f" {mismatch['expected']}  found {mismatch['found']}")
        assert status == 1 and out.splitlines()[-2:] == [line, "result: FAIL"], out
    # the key is written only on a mismatch
    path.write_text(json.dumps(gen_json("--n", "2", "--m", "3", "--family", "bernoulli")))
    status, out, _ = run_main(["verify", "--input", str(path)])
    assert status == 0 and "family_mismatch" not in json.loads(out)


def test_verify_shifted_runs_intertwining_only():
    proc = run_cli("verify", "--n", "2", "--m", "5", "--shift", "2")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["results"] == []
    assert payload["intertwining"] is True


def test_verify_pretty():
    proc = run_cli("verify", "--n", "2", "--m", "3", "--format", "pretty")
    assert proc.returncode == 0
    assert "result: PASS" in proc.stdout
    assert "k=3  monogenic=pass  ladder=pass" in proc.stdout


def test_verify_pretty_shifted_reports_m():
    # a shifted sequence has no per-degree results; m comes from the sequence
    proc = run_cli("verify", "--n", "2", "--m", "5", "--shift", "1", "--format", "pretty")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "family: canonical  n: 2  m: 5  s: 1"


def test_verify_rejects_csv_format():
    proc = run_cli("verify", "--n", "2", "--m", "3", "--format", "csv")
    assert proc.returncode == 2


def test_verify_has_no_float_option(tmp_path):
    # a report holds no values to approximate; --float used to be accepted and ignored
    path = tmp_path / "seq.json"
    run_cli("gen", "--n", "2", "--m", "2", "--output", str(path))
    for args in (["--input", str(path)], ["--n", "2", "--m", "2"]):
        proc = run_cli("verify", *args, "--float")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: unrecognized arguments: --float\n"


def test_verify_input_conflicts_with_flags(tmp_path):
    path = tmp_path / "seq.json"
    run_cli("gen", "--n", "2", "--m", "2", "--output", str(path))
    proc = run_cli("verify", "--input", str(path), "--n", "2")
    assert proc.returncode == 2


@pytest.mark.parametrize("command", [["verify"], ["eval", "--point", "1,2,0"]])
@pytest.mark.parametrize(
    "flag", [["--family", "hermite"], ["--family", "canonical"], ["--lambda", "2"],
             ["--c0", "1"], ["--shift", "0"]],
    ids=["family", "family-default", "lambda", "c0-default", "shift-default"],
)
def test_input_refuses_build_flags(tmp_path, command, flag):
    # the file fixes the sequence; a build flag next to it used to be ignored
    path = tmp_path / "seq.json"
    run_cli("gen", "--n", "2", "--m", "2", "--output", str(path))
    proc = run_cli(command[0], "--input", str(path), *command[1:], *flag)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {flag[0]} does not apply to --input: the file fixes the sequence\n"


def test_verify_missing_input_file():
    proc = run_cli("verify", "--input", "/nonexistent/seq.json")
    assert proc.returncode == 2


def test_verify_garbage_input(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    proc = run_cli("verify", "--input", str(path))
    assert proc.returncode == 2


@pytest.mark.parametrize("command", [("verify",), ("eval", "--point", "1,2,3")])
def test_input_past_the_byte_budget_exits_2_before_it_is_parsed(tmp_path, monkeypatch, command):
    # json.load holds a file several times over, so its size is refused first: by fstat for a
    # regular file, and for a pipe by reading at most one character past the budget
    path = tmp_path / "seq.json"
    assert run_main(["gen", "--n", "2", "--m", "3", "--output", str(path)])[0] == 0
    size = path.stat().st_size

    def run_piped():
        read, write = os.pipe()
        os.write(write, path.read_bytes())  # a file this small fits in the pipe's buffer
        os.close(write)
        try:
            return run_main([*command, "--input", f"/dev/fd/{read}"]), f"/dev/fd/{read}"
        finally:
            os.close(read)

    monkeypatch.setattr(cli_sequence, "INPUT_BUDGET", size)
    loaded = run_main([*command, "--input", str(path)])
    assert loaded[0] == 0 and run_piped()[0] == loaded

    def refuse(*args, **kwargs):
        raise AssertionError("a file past the budget must not be parsed")

    monkeypatch.setattr(cli_sequence, "INPUT_BUDGET", size - 1)
    monkeypatch.setattr(json, "loads", refuse)
    budget = f"the --input budget of {size - 1} bytes\n"
    assert run_main([*command, "--input", str(path)]) == (
        2, "", f"error: {path} holds {size} bytes, more than {budget}"
    )
    piped, name = run_piped()
    assert piped == (2, "", f"error: {name} holds more than {budget}")


def parse_values(text: str) -> int:
    """The values json.loads may make of `text`: one per comma, [ and {."""
    return text.count(",") + text.count("[") + text.count("{")


# Hand-made additions to a gen file, within the byte budget, that make many values of few bytes.
PADDINGS = {
    "short-strings": lambda payload, p: {**payload, "x": ["12"] * p},
    "nested-lists": lambda payload, p: {**payload, "x": [[[0]]] * p},
    "nested-dicts": lambda payload, p: {**payload, "x": [{"a": {"a": {}}}] * p},
    "empty-members": lambda payload, p: {**payload, "polys": [{"k": 0, "terms": []}] * p},
    "member-members": lambda payload, p: {
        **payload, "polys": [{"k": 0, "terms": [{"k": 0, "terms": [{}]}]}] * p
    },
}


@pytest.mark.parametrize("command", [("verify",), ("eval", "--point", "1,2,3")])
@pytest.mark.parametrize("padding", PADDINGS.values(), ids=PADDINGS)
def test_input_past_the_value_bound_exits_2_before_it_is_parsed(
    tmp_path, monkeypatch, command, padding
):
    # the byte budget bounds the text, not the values json.loads makes of it; each value follows
    # a comma, a [ or a {, whatever the nesting, and 5 per term of SIZE_BUDGET are allowed
    path = tmp_path / "seq.json"
    assert run_main(["gen", "--n", "2", "--m", "5", "--output", str(path)])[0] == 0
    payload = json.loads(path.read_text())
    # 21 terms at m = 5: 4 * 21 + 4 * 5 + 11 = 115 = 5 * 23 values, exactly at the bound
    assert parse_values(path.read_text()) == 115
    monkeypatch.setattr(cli, "SIZE_BUDGET", 23)
    assert run_main([*command, "--input", str(path)])[0] == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a file past the value bound must not be parsed")

    monkeypatch.setattr(json, "loads", refuse)
    monkeypatch.setattr(cli, "SIZE_BUDGET", 22)
    expected = "commas and opening brackets, more than the 110 allowed for 22 terms\n"
    assert run_main([*command, "--input", str(path)]) == (
        2, "", f"error: {path} holds 115 {expected}"
    )
    path.write_text(json.dumps(padding(payload, 100)))
    values = parse_values(path.read_text())
    assert run_main([*command, "--input", str(path)]) == (
        2, "", f"error: {path} holds {values} {expected}"
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_every_gen_file_within_the_size_budget_is_within_the_value_bound(family):
    # a gen file holds 4 values per term, 4 per degree and 11 more, and m + 2 more with --float;
    # member k holds k + 1 terms (canonical) or at most C(k + 2, 2)
    lam = "-4/7" if family == "frobenius-euler" else None
    most_terms = lambda m: math.comb(m + 2 + (family != "canonical"), 2 + (family != "canonical"))
    for m in (0, 1, 5, 12):
        for with_float in ([], ["--float"]):
            argv = ["gen", "--n", "3", "--m", str(m), "--family", family, *with_float]
            status, text, _ = run_main(argv + ([f"--lambda={lam}"] if lam else []))
            terms = sum(len(member["terms"]) for member in json.loads(text)["polys"])
            extra = m + 2 if with_float else 0
            assert status == 0 and parse_values(text) == 4 * terms + 4 * m + 11 + extra
            assert terms <= most_terms(m)

    def admitted(m):
        flags = SimpleNamespace(n=3, m=m, family=family, lam=lam, c0=None, shift=None)
        try:
            cli_sequence.build_flags(flags)
        except ValueError:
            return False
        return True

    # the largest m the size check admits: 1412 for canonical, where the file holds 4,001,623
    m = next(m for m in itertools.count() if not admitted(m + 1))
    assert (m == 1412) == (family == "canonical")
    assert 4 * most_terms(m) + 4 * m + 11 + m + 2 <= 5 * cli.SIZE_BUDGET


def test_input_n_at_the_size_budget_exits_2(tmp_path, monkeypatch):
    # a failure witness prints n + 1 exponents, so a corrupted file of n = 10^9 would print
    # gigabytes; from flags a sequence passes and prints no witness, so --n stays unbounded
    monkeypatch.setattr(cli, "SIZE_BUDGET", 20)
    for n, status in ((19, 1), (20, 2)):
        path = tmp_path / f"n{n}.json"
        assert run_main(["gen", "--n", str(n), "--m", "3", "--output", str(path)])[0] == 0
        payload = json.loads(path.read_text())
        payload["polys"][3]["terms"][0]["a"] += "1"
        path.write_text(json.dumps(payload))
        assert run_main(["verify", "--input", str(path)])[0] == status
    refused = (2, "", f"error: {path} has n = 20, more than the 19 allowed for --input\n")
    assert run_main(["verify", "--input", str(path)]) == refused
    assert run_main(["eval", "--input", str(path), "--point", ",".join("1" * 21)]) == refused
    assert run_main(["verify", "--n", "20", "--m", "3"])[0] == 0


def test_undecodable_input_exits_2(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"family": "caf\xe9"}')
    status, out, err = run_main(["verify", "--input", str(path)])
    assert (status, out) == (2, "")
    assert err.startswith(f"error: {path} is not a valid sequence file: 'utf-8' codec can't decode")


def _set_family(payload):
    payload["family"] = "nonsense"


def _set_n_zero(payload):
    payload["n"] = 0


def _add_term_above_degree(payload):
    payload["polys"][2]["terms"].append({"i": 5, "j": 3, "a": "1"})


def _set_negative_shift(payload):
    payload["s"] = -1


def _drop_coefficient(payload):
    payload["coeffs"].pop()


def _drop(key):
    def edit(payload):
        del payload[key]

    return edit


def _replace_with(doc, then):
    """Swap in another builder's file, then edit it."""

    def edit(payload):
        payload.clear()
        payload.update(copy.deepcopy(doc))
        then(payload)

    return edit


FE_FILE = build_family(2, 3, "frobenius-euler", lam=Fraction(1, 2)).to_json()
SHIFTED_COEFFS_FILE = build_phi(coefficient_sequence(2, 3, shift=1)).to_json()
SHIFTED_FILE = build_family(2, 3, shift=1).to_json()


def _nested_list_text(payload):
    """A 100000-deep JSON list as raw text; json.dumps cannot write it."""
    return "[" * 100000 + "]" * 100000


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(payload):
        node = payload
        for step in path:
            node = node[step]
        node[key] = value

    return edit


# Each edit was seen on a hand-edited gen file and used to exit 0, 1 or 3, or (a missing
# key, a non-list "polys", a list payload) 2 only through the CLI catching KeyError/TypeError.
@pytest.mark.parametrize(
    "command, edit",
    [
        (["verify"], _set_family),
        (["eval", "--point", "1"], _set_n_zero),
        (["verify"], _add_term_above_degree),
        (["verify"], _set_negative_shift),
        (["verify"], _drop_coefficient),
        (["verify"], _set("coeffs", 3, "1/0")),
        (["eval", "--point", "1,2,0"], _set("coeffs", 3, "1/0")),
        (["verify"], _set("polys", 2, "terms", 0, "a", "3/0")),
        (["eval", "--point", "1,2,0"], _set("polys", 2, "terms", 0, "a", "3/0")),
        (["verify"], _set("lambda", "2/0")),
        (["eval", "--point", "1,2,0"], _set("lambda", "2/0")),
        (["verify"], _set("coeffs", 0, 1)),
        (["verify"], _set("polys", 2, "terms", 0, "a", 1)),
        (["verify"], _set("n", 1.7)),
        (["verify"], _set("n", True)),
        (["verify"], _set("n", 3)),
        (["verify"], _set("coeffs", 2, "7")),
        (["verify"], _set("m", 99)),
        (["eval", "--point", "1,2,0"], _set("m", 2)),
        (["verify"], _set("m", "3")),
        (["verify"], _set("m", 3.0)),
        (["verify"], _drop("m")),
        *[
            (command, edit)
            for edit in (
                _set("lambda", "1/2"),
                _replace_with(FE_FILE, _set("lambda", None)),
                _replace_with(FE_FILE, _set("lambda", "1")),
                _replace_with(SHIFTED_COEFFS_FILE, _set("family", "bernoulli")),
                _replace_with(SHIFTED_FILE, _set("polys", 2, "terms", 0, "a", "999")),
                _drop("n"), _drop("family"), _drop("coeffs"), _drop("polys"),
                _set("polys", 5),
                lambda payload: [payload],
                _nested_list_text,
            )
            for command in (["verify"], ["eval", "--point", "1,2,0"])
        ],
    ],
    ids=[
        "unknown-family", "n-zero", "term-above-degree", "negative-shift", "short-coeffs",
        "coeff-zero-denominator", "eval-coeff-zero-denominator",
        "term-zero-denominator", "eval-term-zero-denominator",
        "lambda-zero-denominator", "eval-lambda-zero-denominator",
        "coeff-json-number", "term-json-number", "n-float", "n-bool",
        "coeffs-of-another-n", "coeff-off-the-recurrence",
        "m-too-large", "eval-m-too-small", "m-string", "m-float", "m-missing",
        *[
            prefix + case
            for case in (
                "canonical-lambda", "lambda-null", "lambda-one", "shifted-bernoulli",
                "shifted-term-edited", "n-missing", "family-missing", "coeffs-missing",
                "polys-missing", "polys-int", "payload-list", "payload-nested-too-deep",
            )
            for prefix in ("", "eval-")
        ],
    ],
)
def test_malformed_input_file_exits_2(tmp_path, command, edit):
    payload = gen_json("--n", "2", "--m", "3")
    replaced = edit(payload)  # an edit may return a whole new document, or its text
    path = tmp_path / "edited.json"
    if not isinstance(replaced, str):
        replaced = json.dumps(payload if replaced is None else replaced)
    path.write_text(replaced)
    proc = run_cli(command[0], "--input", str(path), *command[1:])
    assert proc.returncode == 2, (proc.stdout, proc.stderr)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize(
    "degrees, message",
    [
        ([0, 1, 2, 2], "polynomial degree 2 is listed more than once"),
        ([0, 2], "polynomial degrees must cover 0..m, missing 1"),
    ],
    ids=["repeated-degree", "degree-gap"],
)
def test_input_degree_list_exits_2_naming_its_fault(tmp_path, degrees, message):
    # a repeated degree of a gen --n 2 --m 2 file used to be reported as degree 3 missing
    payload = gen_json("--n", "2", "--m", "2")
    payload["polys"] = [payload["polys"][k] for k in degrees]
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload))
    proc = run_cli("verify", "--input", str(path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {path} is not a valid sequence file: {message}\n"


# -- eval --------------------------------------------------------------------


def test_eval_phi1_known_point():
    proc = run_cli("eval", "--n", "2", "--m", "1", "--point", "1,2,0")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["point"] == ["1", "2", "0"]
    value = payload["values"][1]["value"]
    assert value["terms"] == [
        {"blade": [], "coeff": "1"},
        {"blade": [1], "coeff": "1"},
    ]


def test_eval_origin_is_zero_above_degree_zero():
    proc = run_cli("eval", "--n", "2", "--m", "4", "--point", "0,0,0")
    payload = json.loads(proc.stdout)
    assert payload["values"][0]["value"]["terms"] == [{"blade": [], "coeff": "1"}]
    for entry in payload["values"][1:]:
        assert entry["value"]["terms"] == []


def test_eval_complex_powers():
    proc = run_cli("eval", "--n", "1", "--m", "3", "--point", "1,1")
    payload = json.loads(proc.stdout)
    values = {v["k"]: v["value"]["terms"] for v in payload["values"]}
    assert values[2] == [{"blade": [1], "coeff": "2"}]
    assert values[3] == [{"blade": [], "coeff": "-2"}, {"blade": [1], "coeff": "2"}]


def test_eval_float_rendering():
    proc = run_cli("eval", "--n", "2", "--m", "1", "--point", "1,2,0", "--float")
    payload = json.loads(proc.stdout)
    term = payload["values"][1]["value"]["terms"][0]
    assert term["approx"] == 1.0


def test_eval_csv():
    proc = run_cli("eval", "--n", "1", "--m", "2", "--point", "1,1", "--format", "csv")
    lines = proc.stdout.splitlines()
    assert lines[0] == "k,blade,coeff"
    assert "2,e1,2" in lines


def test_eval_pretty():
    proc = run_cli("eval", "--n", "2", "--m", "1", "--point", "1,2,0", "--format", "pretty")
    assert "phi_1(x) = 1 + e1" in proc.stdout


def test_eval_point_validation():
    assert run_cli("eval", "--n", "2", "--m", "1", "--point", "1,2").returncode == 2
    assert run_cli("eval", "--n", "2", "--m", "1", "--point", "1,2,0,0").returncode == 2
    assert run_cli("eval", "--n", "2", "--m", "1", "--point", "1.5,2,0").returncode == 2
    assert run_cli("eval", "--n", "2", "--m", "1", "--point", "1,2,1/0").returncode == 2


def test_eval_from_input_checks_point_dimension(tmp_path):
    path = tmp_path / "seq.json"
    run_cli("gen", "--n", "3", "--m", "2", "--output", str(path))
    good = run_cli("eval", "--input", str(path), "--point", "1,1,0,2")
    assert good.returncode == 0
    bad = run_cli("eval", "--input", str(path), "--point", "1,1")
    assert bad.returncode == 2


# -- matrices ------------------------------------------------------------------


def test_matrices_default_creation():
    proc = run_cli("matrices", "--m", "3")
    payload = json.loads(proc.stdout)
    assert payload == {
        "m": 3,
        "rows": [["0"], ["1", "0"], ["0", "2", "0"], ["0", "0", "3", "0"]],
    }


def test_matrices_tilde():
    proc = run_cli("matrices", "--n", "2", "--m", "3", "--tilde")
    payload = json.loads(proc.stdout)
    assert payload["rows"][1][0] == "-2"
    assert payload["rows"][2][1] == "-2"
    assert payload["rows"][3][2] == "-4"


def test_matrices_tilde_shifted():
    proc = run_cli("matrices", "--n", "2", "--m", "2", "--tilde", "--shift", "1")
    payload = json.loads(proc.stdout)
    assert payload["rows"][1][0] == "-4"
    assert payload["rows"][2][1] == "-2"


def test_matrices_bernoulli_first_column():
    proc = run_cli("matrices", "--m", "2", "--family", "bernoulli")
    payload = json.loads(proc.stdout)
    assert [payload["rows"][i][0] for i in range(3)] == ["1", "-1/2", "1/6"]


def test_matrices_pascal():
    proc = run_cli("matrices", "--m", "2", "--pascal", "1/2")
    payload = json.loads(proc.stdout)
    assert payload["rows"] == [["1"], ["1/2", "1"], ["1/4", "1", "1"]]


def test_matrices_frobenius_euler():
    proc = run_cli("matrices", "--m", "1", "--family", "frobenius-euler", "--lambda", "3")
    payload = json.loads(proc.stdout)
    # (1-lambda)(P(1) - lambda I)^(-1) at lambda = 3: [[1, 0], [1/2, 1]]
    assert payload["rows"] == [["1"], ["1/2", "1"]]


def test_matrices_csv_and_pretty():
    csv_proc = run_cli("matrices", "--m", "2", "--format", "csv")
    lines = csv_proc.stdout.splitlines()
    assert lines[0] == "i,j,value"
    assert "1,0,1" in lines and "2,1,2" in lines
    pretty = run_cli("matrices", "--m", "2", "--format", "pretty")
    assert pretty.returncode == 0 and pretty.stdout.count("\n") == 3


def test_matrices_float():
    proc = run_cli("matrices", "--m", "1", "--family", "bernoulli", "--float")
    payload = json.loads(proc.stdout)
    assert payload["rows_approx"] == [[1.0], [-0.5, 1.0]]


def test_matrices_usage_errors():
    cases = [
        ("matrices", "--m", "2", "--tilde"),  # --n missing
        ("matrices", "--m", "2", "--tilde", "--pascal", "1"),
        ("matrices", "--m", "2", "--pascal", "1", "--family", "euler"),
        ("matrices", "--m", "2", "--family", "euler", "--lambda", "2"),
        ("matrices", "--m", "2", "--family", "frobenius-euler"),
        ("matrices", "--m", "2", "--family", "frobenius-euler", "--lambda", "1"),
        ("matrices", "--m", "2", "--shift", "1"),
        ("matrices", "--m", "2", "--n", "2"),
        ("matrices", "--m", "2", "--lambda", "2"),
        ("matrices", "--m", "2", "--pascal", "0.5"),
        ("matrices", "--m", "2", "--family", "canonical"),
        ("matrices", "--m", "-1"),
        ("matrices", "--m", "-1", "--family", "bernoulli"),
        ("matrices", "--m", "-1", "--pascal", "2"),
    ]
    for case in cases:
        proc = run_cli(*case)
        assert (proc.returncode, proc.stdout) == (2, ""), (case, proc.stderr)


# -- exp -----------------------------------------------------------------------


def test_exp_order_zero():
    proc = run_cli("exp", "--n", "2", "--point", "3,1,2", "--order", "0")
    payload = json.loads(proc.stdout)
    assert payload["value"]["terms"] == [{"blade": [], "coeff": "1"}]


def test_exp_real_line_is_truncated_series():
    proc = run_cli("exp", "--n", "1", "--point", "1,0", "--order", "4")
    payload = json.loads(proc.stdout)
    # 1 + 1 + 1/2 + 1/6 + 1/24 = 65/24
    assert payload["value"]["terms"] == [{"blade": [], "coeff": "65/24"}]


def test_exp_float_approximates_cos_sin():
    import math

    proc = run_cli("exp", "--n", "1", "--point", "0,1", "--order", "20", "--float")
    payload = json.loads(proc.stdout)
    terms = {tuple(t["blade"]): t["approx"] for t in payload["value"]["terms"]}
    assert abs(terms[()] - math.cos(1)) < 1e-12
    assert abs(terms[(1,)] - math.sin(1)) < 1e-12


def test_exp_usage_errors():
    assert run_cli("exp", "--n", "1", "--point", "0,1", "--order", "-1").returncode == 2
    assert run_cli("exp", "--n", "1", "--point", "0,1,2", "--order", "3").returncode == 2
    assert run_cli("exp", "--n", "0", "--point", "0", "--order", "3").returncode == 2


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("point", ["0", "0,1", "0,1,2"])
def test_exp_dimension_rule_comes_before_point_length(n, point):
    proc = run_cli("exp", "--n", n, "--point", point, "--order", "3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: dimension n must be at least 1, got {n}\n"


# -- --float renderings and the JSON writer -------------------------------------


HUGE = "1" + "0" * 310  # beyond the largest double, about 1.8e308


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "args",
    [
        ("matrices", "--m", "120", "--pascal=1000000"),
        ("exp", "--n", "1", "--point=100000,1", "--order", "300"),
        ("eval", "--n", "2", "--m", "3", "--point", f"{HUGE},1,2"),
        ("gen", "--n", "2", "--m", "3", "--c0", HUGE),
    ],
    ids=["matrices", "exp", "eval", "gen"],
)
def test_float_beyond_double_range_exits_2(args, fmt):
    proc = run_cli(*args, "--float", "--format", fmt)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: --float ") and proc.stderr.count("\n") == 1, proc.stderr


def run_main(argv):
    """cli.main in this process: (status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


# Every kind of JSON payload the CLI writes, at the sizes the benchmark runs, and gen per family.
MATRIX_FLAGS = {
    "bernoulli": ["--family", "bernoulli"],
    "euler": ["--family", "euler"],
    "hermite": ["--family", "hermite"],
    "frobenius-euler": ["--family", "frobenius-euler", "--lambda=-5/2"],
    "pascal": ["--pascal=-3/7"],
}
WRITER_CASES = {
    "gen": ["gen", "--n", "4", "--m", "32", "--family", "frobenius-euler", "--lambda=-3/7"],
    "gen-float": ["gen", "--n", "2", "--m", "12", "--family", "bernoulli", "--float"],
    "verify": ["verify", "--n", "8", "--m", "10", "--family", "euler"],
    "verify-witness": ["verify", "--input", "CORRUPTED"],
    "eval": ["eval", "--n", "3", "--m", "10", "--family", "hermite", "--point", "1/2,-1,2/3,4",
             "--float"],
    "exp": ["exp", "--n", "3", "--point", "-1/3,1,2/5,-2", "--order", "60", "--float"],
    **{
        f"gen-{family}": ["gen", "--n", "3", "--m", "9",
                          *MATRIX_FLAGS.get(family, ["--family", family])]
        for family in FAMILIES
    },
    "gen-c0-shift": ["gen", "--n", "2", "--m", "7", "--c0", "-2/3", "--shift", "2"],
    "gen-m0": ["gen", "--n", "1", "--m", "0", "--family", "hermite", "--float"],
    "matrices-m0": ["matrices", "--m", "0", "--family", "euler", "--float"],
    **{
        f"matrices-{name}{suffix}": ["matrices", "--m", "56", *flags, *extra]
        for name, flags in MATRIX_FLAGS.items()
        for suffix, extra in (("", []), ("-float", ["--float"]))
    },
}


def json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def flag_values(argv) -> dict:
    """The flags of a command line as {flag: value}; --float, the one switch, is True."""
    words = iter(" ".join(argv[1:]).replace("=", " ").split())
    return {word: True if word == "--float" else next(words) for word in words}


def built_gen_text(argv) -> str:
    """json.dumps of the sequence the gen command line `argv` names, built with build_family."""
    flags = flag_values(argv)
    lam = Fraction(flags["--lambda"]) if "--lambda" in flags else None
    seq = build_family(int(flags["--n"]), int(flags["--m"]), flags.get("--family", "canonical"),
                       c0=Fraction(flags.get("--c0", 1)), lam=lam,
                       shift=int(flags.get("--shift", 0)))
    doc = seq.to_json()
    if "--float" in flags:
        doc["coeffs_approx"] = [float(c) for c in seq.coeffs.values]
    return json_text(doc)


def matrix_text(matrix, with_float: bool) -> str:
    """json.dumps of a built matrix, plus "rows_approx" as --float adds it."""
    doc = matrix.to_json()
    if with_float:
        doc["rows_approx"] = [[float(v) for v in row] for row in matrix.rows]
    return json_text(doc)


def built_matrix_text(argv) -> str:
    """matrix_text of the Pascal or transfer matrix the matrices command line `argv` names."""
    flags = flag_values(argv)
    if "--pascal" in flags:
        family, lam = "pascal", Fraction(flags["--pascal"])
    else:
        family = flags["--family"]
        lam = Fraction(flags["--lambda"]) if "--lambda" in flags else None
    return matrix_text(built_matrix(family, lam, int(flags["--m"]))[0], "--float" in flags)


@pytest.mark.parametrize("name", sorted(WRITER_CASES))
def test_json_output_is_json_dumps(tmp_path, name):
    doc = build_family(3, 12, "frobenius-euler", lam=Fraction(-3, 7)).to_json()
    doc["polys"][7]["terms"][2]["a"] = "5/3"
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(doc))
    argv = [str(corrupted) if arg == "CORRUPTED" else arg for arg in WRITER_CASES[name]]
    status, out, err = run_main(argv)
    # gen and matrices render their text themselves: the built sequence or matrix is the
    # reference, through to_json and json.dumps
    if argv[0] == "gen":
        assert (status, out, err) == (0, built_gen_text(argv), "")
    elif argv[0] == "matrices":
        assert (status, out, err) == (0, built_matrix_text(argv), "")
    else:
        # verify, eval and exp hand cli.emit a dict, which it writes through json.dumps
        assert status == (1 if name == "verify-witness" else 0), err
        assert ('"witness"' in out) == (name == "verify-witness")
        assert out == json_text(json.loads(out))


def lambda_flags(lam):
    return [] if lam is None else [f"--lambda={lam}"]


@pytest.mark.parametrize("m", STREAM_ORDERS)
@pytest.mark.parametrize(
    "family, lam, c0, shift",
    [("canonical", None, None, 0), ("canonical", None, "-2/3", 2)]
    + [(family, lam, "5/4", 0) for family, lam in COLUMN_CASES if family != "pascal"],
)
def test_streamed_gen_is_json_dumps_of_the_built_sequence(family, lam, c0, shift, m):
    n = 1 + (m + len(family)) % 4
    argv = ["gen", "--n", str(n), "--m", str(m), "--family", family, *lambda_flags(lam)]
    argv += (["--c0", c0] if c0 else []) + (["--shift", str(shift)] if shift else [])
    seq = build_family(n, m, family, c0=Fraction(c0 or 1), lam=lam, shift=shift)
    assert run_main(argv) == (0, json_text(seq.to_json()), "")


# The derivation matrix at n 1..3 and s 0..2, as (family, lam) cases of built_matrix.
TILDE_CASES = [
    pytest.param("tilde", (n, s), id=f"tilde-n{n}-s{s}") for n in (1, 2, 3) for s in (0, 1, 2)
]


def built_matrix(family, lam, m):
    """(matrix, matrices flags) of one case: Pascal at x0 = lam, H for canonical, the derivation
    matrix at (n, s) = lam for tilde, or a transfer."""
    if family == "pascal":
        return pascal_matrix(lam, m), [f"--pascal={lam}"]
    if family == "canonical":
        return creation_matrix(m), []
    if family == "tilde":
        n, s = lam
        return derivation_matrix(n, m, shift=s), ["--tilde", "--n", str(n), "--shift", str(s)]
    return transfer_matrix(family, m, lam), ["--family", family, *lambda_flags(lam)]


@pytest.mark.parametrize("m", STREAM_ORDERS)
@pytest.mark.parametrize("family, lam", [*COLUMN_CASES, ("canonical", None), *TILDE_CASES])
def test_streamed_matrix_is_json_dumps_of_the_built_matrix(family, lam, m):
    matrix, flags = built_matrix(family, lam, m)
    assert run_main(["matrices", "--m", str(m), *flags]) == (0, json_text(matrix.to_json()), "")


class CountingStdout(io.StringIO):
    """stdout that counts its write calls and keeps the text of each."""

    def __init__(self):
        super().__init__()
        self.pieces = []

    @property
    def writes(self) -> int:
        return len(self.pieces)

    def write(self, text):
        self.pieces.append(text)
        return super().write(text)


@pytest.mark.parametrize(
    "family, lam", [("canonical", None), *(case for case in COLUMN_CASES if case[0] != "pascal")]
)
def test_streamed_gen_json_writes_one_block_at_a_time(family, lam):
    # member k is the blocks C(k,l) t_(k-l) phi_l, and each write holds at most one: terms of one
    # degree l = i + j, at most l + 1 <= k + 1 of them, where a whole member 32 holds up to 561
    n, m = 3, 32
    argv = ["gen", "--n", str(n), "--m", str(m), "--family", family, *lambda_flags(lam)]
    out = CountingStdout()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert out.getvalue() == built_gen_text(argv)
    column = transfer_column(family, m, lam)
    blocks = sum(1 for k in range(m + 1) for d in range(k + 1) if column[d])
    assert out.writes == blocks + 1  # and the tail
    for piece in out.pieces:
        degrees = [int(i) + int(j) for i, j in re.findall(r'"i": (\d+),\s+"j": (\d+)', piece)]
        assert len(set(degrees)) <= 1 and len(degrees) <= sum(degrees[:1]) + 1, piece


@pytest.mark.parametrize("with_float", [False, True])
@pytest.mark.parametrize(
    "family, lam", [("canonical", None), TILDE_CASES[-1], *COLUMN_CASES],
    ids=lambda case: str(case).replace(" ", ""),
)
def test_streamed_matrix_json_writes_one_row_at_a_time(family, lam, with_float):
    # H, the derivation matrix at n = 3, s = 2, and every Pascal and transfer case: the header,
    # then one piece per row of "rows" (and of "rows_approx" under --float), then the tail; row i
    # is the one array of its piece and holds its i + 1 entries
    m = 12
    matrix, flags = built_matrix(family, lam, m)
    out = CountingStdout()
    with contextlib.redirect_stdout(out):
        assert cli.main(["matrices", "--m", str(m), *flags, *["--float"] * with_float]) == 0
    assert out.getvalue() == matrix_text(matrix, with_float)
    row_pieces = out.pieces[1:-1]
    assert len(row_pieces) == (m + 1) * (1 + with_float)
    for piece in (out.pieces[0], out.pieces[-1]):
        assert "\n    [" not in piece, piece
    for index, piece in enumerate(row_pieces):
        assert piece.count("\n    [") == 1, piece
        assert piece.count("\n      ") == index % (m + 1) + 1, piece


def csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def built_tables(family, lam, m):
    """(argv, header, rows) of the CSV commands of one case, the rows from the built objects."""
    matrix, flags = built_matrix(family, lam, m)
    cells = [(i, j, str(v)) for i, row in enumerate(matrix.rows) for j, v in enumerate(row)]
    yield ["matrices", "--m", str(m), *flags], ["i", "j", "value"], cells
    if family in FAMILIES:
        n = 1 + m % 4
        seq = build_family(n, m, family, lam=lam)
        terms = [(k, i, j, str(a))
                 for k, p in enumerate(seq.polys) for (i, j), a in p.sorted_terms()]
        yield ["gen", "--n", str(n), "--m", str(m), *flags], ["k", "i", "j", "a"], terms


@pytest.mark.parametrize("with_float", [False, True])
@pytest.mark.parametrize("m", STREAM_ORDERS)
@pytest.mark.parametrize("family, lam", [*COLUMN_CASES, ("canonical", None), *TILDE_CASES])
def test_streamed_csv_is_the_built_table_one_write_per_row(family, lam, m, with_float):
    for argv, header, rows in built_tables(family, lam, m):
        if with_float:
            argv, header = argv + ["--float"], header + ["approx"]
            rows = ((*row, float(Fraction(row[-1]))) for row in rows)
        rows = [header, *rows]
        out = CountingStdout()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv + ["--format", "csv"]) == 0
        assert out.getvalue() == csv_text(rows)
        assert out.writes == len(rows)


def built_pretty(family, lam, m):
    """(argv, pieces) of the pretty commands of one case, the text rebuilt from the built objects."""
    matrix, flags = built_matrix(family, lam, m)
    cells = [[str(v) for v in row] for row in matrix.rows]
    width = max(len(c) for row in cells for c in row)
    yield ["matrices", "--m", str(m), *flags], [
        " ".join(c.rjust(width) for c in row) + "\n" for row in cells
    ]
    if family in FAMILIES:
        n = 1 + m % 4
        seq = build_family(n, m, family, lam=lam)
        head = f"family: {family}  n: {n}  m: {m}  s: 0\n"
        head += "" if lam is None else f"lambda: {lam}\n"
        head += "coeffs: " + ", ".join(map(str, seq.coeffs.values)) + "\n"
        argv = ["gen", "--n", str(n), "--m", str(m), "--family", family, *lambda_flags(lam)]
        yield argv, [head] + [f"phi_{k} = {poly}\n" for k, poly in enumerate(seq.polys)]


@pytest.mark.parametrize("m", STREAM_ORDERS)
@pytest.mark.parametrize("family, lam", [("canonical", None), *COLUMN_CASES, *TILDE_CASES])
def test_streamed_pretty_is_the_built_text_one_write_per_line(family, lam, m):
    for argv, pieces in built_pretty(family, lam, m):
        out = CountingStdout()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv + ["--format", "pretty"]) == 0
        assert out.getvalue() == "".join(pieces)
        assert out.writes == len(pieces)


def reference_matrix_text(matrix, fmt: str, with_float: bool) -> str:
    """The text `matrices` prints for a reference matrix, from str and float of its Fractions."""
    if fmt == "json":
        return matrix_text(matrix, with_float)
    if fmt == "csv":
        tail = (lambda v: f",{float(v)}") if with_float else (lambda v: "")
        return f"i,j,value{',approx' * with_float}\n" + "".join(
            f"{i},{j},{v}{tail(v)}\n" for i, row in enumerate(matrix.rows) for j, v in enumerate(row)
        )
    width = max(len(str(v)) for row in matrix.rows for v in row)
    return "".join(" ".join(str(v).rjust(width) for v in row) + "\n" for row in matrix.rows)


@pytest.mark.parametrize("m", STREAM_ORDERS)
@pytest.mark.parametrize("family, lam", [("canonical", None), *COLUMN_CASES, *TILDE_CASES])
def test_matrices_in_every_format_is_the_text_of_the_reference_fractions(family, lam, m):
    # the rows are drawn as integer pairs; each format must render them as their Fractions do
    matrix, flags = built_matrix(family, lam, m)
    formats = [("json", False), ("json", True), ("csv", False), ("csv", True), ("pretty", False)]
    for fmt, with_float in formats:
        argv = ["matrices", "--m", str(m), *flags, "--format", fmt, *["--float"] * with_float]
        assert run_main(argv) == (0, reference_matrix_text(matrix, fmt, with_float), ""), argv


def peak_bytes(argv) -> int:
    """tracemalloc peak of one in-process command, its output sent to devnull.

    A full collection first empties the interpreter's free lists, whose objects a run would
    otherwise reuse unseen by tracemalloc, as many as earlier runs happened to leave there.
    """
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        gc.collect()
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def peak_growth(argv, small: int, large: int) -> float:
    """How many times the peak of `argv(m)` grows from m = small to m = large.

    The peak of a warm m = 2 run is taken off both sides: what a run allocates whatever its m
    would pull every ratio towards 1.
    """
    peak_bytes(argv(2))  # one-time allocations of a first run
    fixed = peak_bytes(argv(2))
    return (peak_bytes(argv(large)) - fixed) / (peak_bytes(argv(small)) - fixed)


def sequence_growth(fmt: str = "json", command=("gen",)) -> float:
    """peak_growth from m = 24 to 48 at n = 3, frobenius-euler at lambda = -4/7."""
    fe = ["--family", "frobenius-euler", "--lambda=-4/7", "--format", fmt]
    return peak_growth(lambda m: [*command, "--n", "3", "--m", str(m), *fe], 24, 48)


# Each bound lies between the growth of the streamed route and that of a copy which holds what
# the route streams (tracemalloc, CPython 3.11).
def test_gen_memory_grows_as_m_squared():
    # gen holds phi's O(m^2) terms and one row of T, never the O(m^3) terms of T phi: doubling m
    # grows the peak past its fixed part about 3.1x, where holding every member's terms gives 7.3x
    growth = sequence_growth()
    assert growth < 4, growth


def test_gen_csv_memory_grows_as_m_squared():
    # CSV rows are written as they are drawn, like JSON terms: 2.9x, and 7.0x holding the members
    growth = sequence_growth("csv")
    assert growth < 4, growth


def test_gen_pretty_holds_one_member_text_at_a_time():
    # pretty members are formatted and written one at a time: phi's O(m^2) terms and the text of
    # one member, O(k^2) terms whose digits grow with m, so doubling m grows the peak about 4.4x,
    # 7.3x when every member's terms are held and 7.9x when their text is
    growth = sequence_growth("pretty")
    assert growth < 5.5, growth


@pytest.mark.parametrize("command", [("verify",), ("eval", "--point", "1,2,3,4")])
def test_verify_and_eval_memory_grows_as_m_squared(command):
    # certify and eval_at take each member as it is drawn from the series column and drop it:
    # doubling m about quadruples the peak (4.0x: phi and one member), holding the sequence
    # 6.7-7.3x
    growth = sequence_growth(command=command)
    assert growth < 5, growth


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize("flags", [[], ["--tilde", "--n", "3", "--shift", "2"]], ids=["H", "tilde"])
def test_subdiagonal_matrices_memory_stays_flat_in_m(flags, fmt):
    # H and the derivation matrix are drawn one row at a time from their subdiagonal: tripling m
    # grows the peak past its fixed part 1.0-1.7x (2.1-2.3x for JSON), where building the matrix
    # first gives 3.7x (CSV) to 6.1x
    growth = peak_growth(lambda m: ["matrices", "--m", str(m), *flags, "--format", fmt], 100, 300)
    assert growth < 3, growth


@pytest.mark.parametrize("family", FAMILIES)
def test_verify_and_eval_from_flags_build_no_sequence(monkeypatch, family):
    # like gen, both draw the members from the series column; build_family is the reference
    lam = Fraction(-4, 7) if family == "frobenius-euler" else None
    point = Paravector(Fraction(1, 2), (Fraction(-1), Fraction(2), Fraction(1, 3)))
    built = [build_family(3, m, family, lam=lam) for m in (0, 5, 12)]

    def refuse(*args, **kwargs):
        raise AssertionError("build_family holds every member; the CLI must not call it")

    monkeypatch.setattr(appell, "build_family", refuse)
    monkeypatch.setattr(cli, "build_family", refuse, raising=False)
    for seq in built:
        flags = ["--n", "3", "--m", str(seq.m), "--family", family, *lambda_flags(lam)]
        assert run_main(["verify", *flags]) == (0, json_text(certify(seq).to_json()), "")
        values = [{"k": k, "value": mv.to_json()} for k, mv in enumerate(eval_at(seq, point))]
        status, out, err = run_main(["eval", *flags, "--point", "1/2,-1,2,1/3"])
        assert (status, err, json.loads(out)["values"]) == (0, "", values)


# Runs CLI commands in a fresh interpreter: argv lists in, their (status, stdout, stderr) and
# what the interpreter imported out.  -S keeps a site hook from preloading a module.
ROUTE_SCRIPT = """
import contextlib, io, json, sys
import hyperappell.cli

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = hyperappell.cli.main(argv)
    return status, out.getvalue(), err.getvalue()

results = [run(argv) for argv in json.load(sys.stdin)]
modules = sorted(name for name in sys.modules if name.startswith("hyperappell"))
cached = hasattr(sys.modules["hyperappell.appell"].vector_power_expansion, "cache_info")
hyperappell.TriMatrix  # a reference name, looked up lazily
lazy = "hyperappell.reference" in sys.modules
print(json.dumps({"results": results, "modules": modules, "cached": cached, "lazy": lazy}))
"""
# The modules bench/tracer.py looks up after importing hyperappell.cli.
TRACED_MODULES = {f"hyperappell.{name}" for name in (
    "rationals", "clifford", "trimatrix", "polynomials", "appell", "operators", "cli")}


@pytest.mark.parametrize("family", FAMILIES)
def test_verify_builds_no_matrix_and_no_closed_form(tmp_path, family):
    # certify has one route per identity, and every matrix is drawn row by row from its O(m)
    # rule: the matrices, the closed form and the expansion are the reference route, and no
    # subcommand in any format loads the module that holds them
    lam = "-4/7" if family == "frobenius-euler" else None
    grid = [["--n", str(n), "--m", str(m), "--family", family, *lambda_flags(lam)]
            for n in range(1, 5) for m in range(13)]
    paths = [str(tmp_path / f"seq{i}.json") for i in range(len(grid))]
    point = ["--point", "1/2,-1,2,1/3,4"]
    others = [
        ["gen", *grid[-1]], ["verify", *grid[-1]], ["verify", "--input", paths[-1]],
        ["eval", *grid[-1], *point], ["eval", "--input", paths[-1], *point],
        ["exp", "--n", "4", *point, "--order", "12"],
        ["matrices", "--m", "12"], ["matrices", "--m", "12", "--tilde", "--n", "3", "--shift", "2"],
        ["matrices", "--m", "12", "--pascal=-3/7"],
    ]
    if family != "canonical":
        others.append(["matrices", "--m", "12", "--family", family, *lambda_flags(lam)])
    formatted = [[*argv, "--format", fmt] for argv in others
                 for fmt in (("json", "pretty") if argv[0] == "verify" else ("json", "csv", "pretty"))]
    commands = ([["gen", *flags, "--output", path] for flags, path in zip(grid, paths)]
                + [["verify", *flags] for flags in grid]
                + [["verify", "--input", path] for path in paths] + formatted)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", ROUTE_SCRIPT],
        input=json.dumps(commands),
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    results = [tuple(r) for r in report["results"]]
    size = len(grid)
    gens, from_flags, from_input = (results[i * size:(i + 1) * size] for i in range(3))
    assert gens == [(0, "", "")] * size
    assert all(status == 0 and json.loads(out)["ok"] is True for status, out, _ in from_flags)
    assert from_input == from_flags
    assert [r[0] for r in results[3 * size:]] == [0] * len(formatted), formatted
    assert "hyperappell.reference" not in report["modules"]
    assert TRACED_MODULES <= set(report["modules"]), report["modules"]
    assert report["cached"] is True
    assert report["lazy"] is True  # the check's positive control


# Runs one CLI command in a fresh interpreter and prints the package modules it ran, in order.
# An import runs a module's code object through exec, which raises the "exec" audit event with
# or without a __pycache__; -X importtime misses a lazily run module, and the "compile" event
# misses a module loaded from its cache.
EXEC_SCRIPT = """
import contextlib, io, json, os, sys

package = os.path.join(sys.argv[1], "")
ran = []


def record(event, args):
    if event == "exec" and getattr(args[0], "co_filename", "").startswith(package):
        ran.append(os.path.splitext(os.path.relpath(args[0].co_filename, package))[0])


sys.addaudithook(record)
import hyperappell.cli

registered = sorted(name for name in sys.modules if name.startswith("hyperappell"))
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    status = hyperappell.cli.main(sys.argv[2:])
parsers = sorted({"argparse", "gettext", "locale"} & set(sys.modules))
print(json.dumps({"status": status, "ran": ran, "registered": registered, "parsers": parsers}))
"""
# What every command runs: the package, the CLI and what it imports: trimatrix for the families
# its flag table lists, rationals for the --float column of csv_lines.
STARTUP_MODULES = {"__init__", "cli", "rationals", "trimatrix"}
# compile() holds about 3 KB per source line while it runs, so a command's peak memory grows
# with the largest module it compiles: no module a command runs may be longer than this, counting
# its docstrings and comments.
MODULE_LINES = 400
POINT = ["--point", "1/2,-1,2"]
FE = ["--family", "frobenius-euler", "--lambda=-4/7"]
MATRICES = [["matrices", "--m", m, *flags] for m in ("0", "12")
            for flags in ([], ["--tilde", "--n", "2"], ["--pascal=-3/7"], FE)]
GEN = ["gen", "--n", "2", "--m", "12", *FE]
VERIFY = ["verify", "--n", "2", "--m", "12", *FE]
EVAL = ["eval", "--n", "2", "--m", "12", *FE, *POINT]
EXP = ["exp", "--n", "2", *POINT, "--order", "12"]


def _formats(*commands, formats=("json", "csv", "pretty")):
    return [[*argv, "--format", fmt] for argv in commands for fmt in formats]


# The modules each command runs past STARTUP_MODULES: its handler's, and what that calls.
MATRICES_RUNS = {"cli_matrices", "cli_digits"}
GEN_RUNS = {"cli_gen", "cli_digits", "cli_sequence", "seqfile", "appell"}
VERIFY_RUNS = {"cli_verify", "cli_sequence", "appell", "operators"}
EXP_RUNS = {"cli_evaluate", "cli_digits", "evaluate", "appell", "clifford"}
EVAL_RUNS = EXP_RUNS | {"cli_sequence"}
# (status, those modules, argv); {good} and {bad} are a gen file and a copy with one term
# changed, whose failure witness is a multivector; only --input runs the file reader, seqfile
RUN_CASES = (
    [(0, MATRICES_RUNS, argv) for argv in _formats(*MATRICES)
     + [[*MATRICES[-1], "--float"], [*MATRICES[-1], "--format", "csv", "--float"]]]
    + [(0, GEN_RUNS, argv) for argv in _formats(GEN)
       + [[*GEN, "--float"], ["gen", "--n", "2", "--m", "3", "--output", "{out}"]]]
    + [(0, VERIFY_RUNS, argv) for argv in _formats(VERIFY, formats=("json", "pretty"))]
    + [(0, VERIFY_RUNS | {"seqfile"}, ["verify", "--input", "{good}"])]
    + [(1, VERIFY_RUNS | {"seqfile", "clifford"}, argv)
       for argv in _formats(["verify", "--input", "{bad}"], formats=("json", "pretty"))]
    + [(0, EVAL_RUNS, argv) for argv in _formats(EVAL)]
    + [(0, EVAL_RUNS | {"seqfile"}, ["eval", "--input", "{good}", *POINT])]
    + [(0, EXP_RUNS, argv) for argv in _formats(EXP)]
)


@pytest.mark.parametrize(
    "status, runs, argv", [pytest.param(*case, id=" ".join(case[2])) for case in RUN_CASES])
def test_each_command_runs_only_the_modules_it_calls(tmp_path, status, runs, argv):
    # clifford, polynomials, appell and operators are registered lazily and the handlers are
    # imported by the subcommand that runs them: a command compiles and runs only what it calls,
    # no layer for matrices, while bench/tracer.py still finds every layer in sys.modules right
    # after importing the CLI
    payload = build_family(2, 3).to_json()
    (tmp_path / "good.json").write_text(json.dumps(payload))
    payload["polys"][3]["terms"][0]["a"] += "1"
    (tmp_path / "bad.json").write_text(json.dumps(payload))
    paths = {name: str(tmp_path / f"{name}.json") for name in ("good", "bad", "out")}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", EXEC_SCRIPT, str(SRC / PKG),
         *(arg.format(**paths) for arg in argv)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["status"] == status
    assert report["ran"][:2] == ["__init__", "cli"]
    assert set(report["ran"]) == STARTUP_MODULES | runs, report["ran"]
    assert len(report["ran"]) == len(set(report["ran"]))
    lines = {name: len((SRC / PKG / f"{name}.py").read_text().splitlines()) for name in report["ran"]}
    assert max(lines.values()) <= MODULE_LINES, lines
    assert TRACED_MODULES <= set(report["registered"]), report["registered"]
    assert "hyperappell.reference" not in report["registered"]
    assert report["parsers"] == [], "the flag table is read without argparse"


@pytest.mark.parametrize(
    "args, estimate, unit",
    [
        (["gen", "--n", "2", "--m", "1000000"], 500001500001, "terms"),
        (["gen", "--n", "2", "--m", "1000000", "--family", "bernoulli"],
         166667666668500001, "terms"),
        (["verify", "--n", "2", "--m", "1000000", "--family", "hermite"],
         166667666668500001, "terms"),
        (["eval", "--n", "1", "--m", "1000000", "--point", "1,2"], 500001500001, "terms"),
        (["matrices", "--m", "1000000"], 500001500001, "entries"),
        (["matrices", "--m", "1000000", "--family", "frobenius-euler", "--lambda=-4/7"],
         500001500001, "entries"),
        (["exp", "--n", "2", "--point", "1,2,3", "--order", "1000000"], 500001500001, "terms"),
    ],
    ids=["gen", "gen-transfer", "verify", "eval", "matrices", "matrices-family", "exp"],
)
def test_oversized_build_exits_2_before_any_work(args, estimate, unit):
    start = time.perf_counter()
    proc = run_cli(*args, timeout=30)
    assert time.perf_counter() - start < 1.0
    flag = "--order" if args[0] == "exp" else "--m"
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: {flag} 1000000 would build about {estimate} {unit},"
        f" more than the budget of {cli.SIZE_BUDGET}\n"
    )


def test_size_budget_counts_terms_and_entries(monkeypatch):
    # (m+1)(m+2)(m+3)/6 for a transfer family, (m+1)(m+2)/2 for canonical and matrices
    monkeypatch.setattr(cli, "SIZE_BUDGET", 20)
    assert run_main(["gen", "--n", "2", "--m", "3", "--family", "euler"])[0] == 0  # 20
    assert run_main(["gen", "--n", "2", "--m", "4", "--family", "euler"])[0] == 2  # 35
    assert run_main(["gen", "--n", "2", "--m", "4"])[0] == 0  # 15
    assert run_main(["gen", "--n", "2", "--m", "5"])[0] == 2  # 21
    assert run_main(["matrices", "--m", "5"])[0] == 2  # 21
    assert run_main(["exp", "--n", "1", "--point", "0,1", "--order", "4"])[0] == 0
    assert run_main(["exp", "--n", "1", "--point", "0,1", "--order", "5"])[0] == 2


@pytest.fixture
def digit_limit():
    """sys.set_int_max_str_digits for one test; the limit in force before is restored after."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this CPython has no limit on the digits of int to str conversion")
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


def test_numbers_past_the_digit_limit_exit_2_before_the_first_byte(digit_limit):
    # CPython's default limit of 4300 digits: these wrote megabytes before failing mid-document
    digit_limit(4300)
    e60 = 10**60
    for args in (["matrices", "--m", "72", f"--pascal={e60}"],
                 ["gen", "--n", "2", "--m", "40", f"--c0={10**4290}"],
                 ["matrices", "--m", "3", "--tilde", "--n", "1", f"--shift={5 * 10**4299}"]):
        for fmt in ("json", "csv", "pretty"):
            status, out, err = run_main([*args, "--format", fmt])
            assert (status, out) == (2, "")
            assert err.startswith("error: the output would hold numbers of about")
            assert err.endswith(" more than the limit of 4300 digits for int to str conversion\n")
    # the bound is tight for Pascal: one order less is written in full
    argv = ["matrices", "--m", "71", f"--pascal={e60}"]
    assert run_main(argv) == (0, json_text(pascal_matrix(e60, 71).to_json()), "")


def test_eval_and_exp_values_past_the_digit_limit_exit_2_in_its_words(digit_limit, tmp_path):
    # at x0 = 10^100, phi_7 and the order-7 sum hold x0^7 (701 digits); phi_6 (601) is written
    digit_limit(640)
    point = ["--point", f"{10**100},1"]
    path = tmp_path / "m7.json"
    assert run_main(["gen", "--n", "1", "--m", "7", "--output", str(path)])[0] == 0
    for args in (["eval", "--n", "1", "--m", "7", *point], ["eval", "--input", str(path), *point],
                 ["exp", "--n", "1", *point, "--order", "7"]):
        for fmt in ("json", "csv", "pretty"):
            status, out, err = run_main([*args, "--format", fmt])
            assert (status, out, err.count("\n")) == (2, "", 1), (args, fmt)
            assert err.startswith("error: the output would hold numbers of about 70")
            assert err.endswith(" more than the limit of 640 digits for int to str conversion\n")
    assert run_main(["eval", "--n", "1", "--m", "6", *point])[0] == 0
    assert run_main(["exp", "--n", "1", *point, "--order", "6"])[0] == 0


def gen_values(seq):
    return [*seq.coeffs.values, *(a for p in seq.polys for a in p.terms.values())]


LAM_60 = Fraction(1, 10**60)
DIGIT_CASES = {
    "pascal": (["matrices", f"--pascal={10**60}"],
               lambda m: [v for row in pascal_matrix(10**60, m).rows for v in row]),
    "matrices-fe": (["matrices", "--family", "frobenius-euler", f"--lambda={LAM_60}"],
                    lambda m: [v for row in transfer_matrix("frobenius-euler", m, LAM_60).rows
                               for v in row]),
    "gen-fe": (["gen", "--n", "2", "--family", "frobenius-euler", f"--lambda={LAM_60}"],
               lambda m: gen_values(build_family(2, m, "frobenius-euler", lam=LAM_60))),
    "gen-c0": (["gen", "--n", "2", f"--c0={10**635}"],
               lambda m: gen_values(build_family(2, m, c0=10**635))),
    # entry (i, i-1) for odd i is n + i + 2s - 1 = 10^640 - 12 + i in size: past from m = 13
    "tilde": (["matrices", "--tilde", "--n", "1", f"--shift={5 * 10**639 - 6}"],
              lambda m: [v for row in derivation_matrix(1, m, 5 * 10**639 - 6).rows for v in row]),
}


@pytest.mark.parametrize("case", DIGIT_CASES)
def test_digit_refusal_is_exact_on_these_families(digit_limit, case):
    # at the smallest limit CPython allows: exit 2 with empty stdout and one line exactly
    # when a number printed would pass it, and no refusal at all with the limit off
    args, values = DIGIT_CASES[case]
    outcomes = set()
    for m in range(25):
        digit_limit(640)
        past = any(max(abs(v.numerator), v.denominator) >= 10**640 for v in values(m))
        status, out, err = run_main([*args, "--m", str(m), "--format", "csv"])
        assert (status, out == "", err.count("\n")) == ((2, True, 1) if past else (0, False, 0)), m
        outcomes.add(past)
        digit_limit(0)
        assert run_main([*args, "--m", str(m), "--format", "csv"])[0] == 0
    assert outcomes == {True, False}


def test_size_budget_admits_the_large_commands():
    # ten times the largest commands in use: gen or verify of a transfer family at m = 80,
    # matrices at m = 250, verify of the canonical family at m = 120
    assert 81 * 82 * 83 // 6 * 10 < cli.SIZE_BUDGET
    assert 251 * 252 // 2 * 10 < cli.SIZE_BUDGET
    assert 121 * 122 // 2 * 10 < cli.SIZE_BUDGET


def test_reader_closing_stdout_early_exits_0_quietly():
    # `hyperappell gen ... | head -c 100`: the reader leaves while gen is still streaming
    gen = WRITER_CASES["gen"]
    more_output = (
        "import sys\nfrom hyperappell.cli import main\nstatus = main()\n"
        "sys.stdout.write('x' * 65536)\nsys.stdout.flush()\nsys.exit(status)"
    )
    # after main returns, whatever stdout still holds or gets must go nowhere, not fail
    for argv in ([sys.executable, "-m", PKG, *gen], [sys.executable, "-c", more_output, *gen]):
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (0, ""), argv[1]


@pytest.mark.parametrize(
    "args",
    [
        ("gen", "--n", "2", "--m", "2"),
        ("eval", "--n", "2", "--m", "2", "--point", "1,2,0"),
        ("matrices", "--m", "2"),
        ("exp", "--n", "1", "--point", "0,1", "--order", "3"),
    ],
    ids=["gen", "eval", "matrices", "exp"],
)
def test_float_with_pretty_exits_2(args):
    # pretty output has no place for decimals, so the flag is refused, not ignored
    status, out, err = run_main([*args, "--format", "pretty", "--float"])
    assert (status, out) == (2, "")
    assert err == "error: --float applies to json and csv output, not to pretty\n"


# -- --output failures -------------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [("gen", "--n", "2", "--m", "2"), ("verify", "--n", "2", "--m", "2"), ("matrices", "--m", "2")],
    ids=["gen", "verify", "matrices"],
)
@pytest.mark.parametrize("target", ["missing-dir", "dir", "empty"])
def test_failed_output_write_exits_2(tmp_path, args, target):
    # an empty path is a path that cannot be written, not a request for stdout
    path = {"missing-dir": str(tmp_path / "absent" / "x.json"), "dir": str(tmp_path), "empty": ""}
    path = path[target]
    status, out, err = run_main([*args, "--output", path])
    assert (status, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1, err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that refuses writes")
def test_output_to_full_device_exits_2():
    status, out, err = run_main(["verify", "--n", "2", "--m", "2", "--output", "/dev/full"])
    assert (status, out) == (2, "")
    assert err.startswith("error: cannot write /dev/full: ") and err.count("\n") == 1, err


# -- global behaviour ------------------------------------------------------------


def test_unknown_subcommand_exits_2():
    assert run_cli("frobnicate").returncode == 2


# Each usage error of the parser and its one stderr line, after "error: ".
USAGE_ERRORS = [
    (["verify", "--n", "2", "--m", "2", "--float"], "unrecognized arguments: --float"),
    # exact names only: no unique-prefix abbreviation
    (["gen", "--fam", "bernoulli", "--n", "2", "--m", "2"],
     "unrecognized arguments: --fam bernoulli"),
    (["gen", "--n", "2", "--m", "2", "stray"], "unrecognized arguments: stray"),
    (["verify", "--n", "2", "--m", "2", "--format", "csv"],
     "argument --format: invalid choice: 'csv' (choose from 'json', 'pretty')"),
    (["matrices", "--m", "2", "--family=canonical"], "argument --family: invalid choice:"
     " 'canonical' (choose from 'bernoulli', 'euler', 'frobenius-euler', 'hermite')"),
    (["gen", "--n", "two", "--m", "2"], "argument --n: invalid int value: 'two'"),
    (["exp", "--n", "2", "--order", "3.5", "--point", "0,1,2"],
     "argument --order: invalid int value: '3.5'"),
    (["eval", "--n", "2", "--m", "3"], "the following arguments are required: --point"),
    (["exp", "--n", "2", "--order", "3"], "the following arguments are required: --point"),
    (["exp"], "the following arguments are required: --n, --point, --order"),
    (["matrices", "--format", "csv"], "the following arguments are required: --m"),
    (["gen", "--n", "2", "--m"], "argument --m: expected one argument"),
    (["gen", "--n", "--m", "2"], "argument --n: expected one argument"),
    (["gen", "--n", "2", "--m", "2", "--c0", "-x"], "argument --c0: expected one argument"),
    ([], "the following arguments are required: command"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"
     " (choose from 'gen', 'verify', 'eval', 'matrices', 'exp')"),
    (["gen", "--n", "2", "--m", "2", "--float=yes"],
     "argument --float: ignored explicit argument 'yes'"),
    (["matrices", "--m", "2", "--n", "2", "--tilde="],
     "argument --tilde: ignored explicit argument ''"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS, ids=[" ".join(a) for a, _ in USAGE_ERRORS])
def test_usage_error_exits_2_with_one_error_line(argv, message):
    assert run_main(argv) == (2, "", f"error: {message}\n")


# Every flag of each subcommand, in the order its help lists them.
SUBCOMMAND_FLAGS = {
    "gen": ["--n", "--m", "--family", "--lambda", "--c0", "--shift", "--format", "--output",
            "--float"],
    "verify": ["--n", "--m", "--family", "--lambda", "--c0", "--shift", "--input", "--format",
               "--output"],
    "eval": ["--n", "--m", "--family", "--lambda", "--c0", "--shift", "--input", "--point",
             "--format", "--output", "--float"],
    "matrices": ["--m", "--n", "--tilde", "--shift", "--pascal", "--family", "--lambda",
                 "--format", "--output", "--float"],
    "exp": ["--n", "--point", "--order", "--format", "--output", "--float"],
}


@pytest.mark.parametrize("command", SUBCOMMAND_FLAGS)
@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_exits_0_and_lists_every_flag(command, flag):
    status, out, err = run_main([command, "--n", "2", flag, "--format", "bogus"])
    assert (status, err) == (0, "")
    listed = [line.split()[0] for line in out.splitlines() if line.startswith("  --")]
    assert listed == SUBCOMMAND_FLAGS[command], out
    status, top, err = run_main([flag])
    assert (status, err) == (0, "")
    assert [line.split()[0] for line in top.splitlines()[4:9]] == list(SUBCOMMAND_FLAGS), top


@pytest.mark.parametrize(
    "separate",
    [
        ["gen", "--n", "2", "--m", "3", "--family", "bernoulli", "--format", "csv", "--float"],
        ["verify", "--n", "2", "--m", "3", "--shift", "1", "--format", "pretty"],
        ["matrices", "--m", "3", "--tilde", "--n", "2", "--shift", "1"],
        ["exp", "--n", "1", "--point", "0,1", "--order", "4", "--format", "pretty"],
    ],
    ids=["gen", "verify", "matrices", "exp"],
)
def test_attached_values_and_repeated_flags_parse_as_separate_ones(separate):
    # --flag=value reads as --flag value, and a repeated flag keeps its last value
    attached, i = [separate[0]], 1
    while i < len(separate):
        takes_value = i + 1 < len(separate) and not separate[i + 1].startswith("--")
        attached.append(f"{separate[i]}={separate[i + 1]}" if takes_value else separate[i])
        i += 2 if takes_value else 1
    repeated = [separate[0], "--n", "7", "--format", "json", *separate[1:]]
    runs = [run_main(argv) for argv in (separate, attached, repeated)]
    assert runs[0][0] == 0 and runs[0][2] == "", runs[0]
    assert runs[1] == runs[2] == runs[0]
    assert attached != separate


def test_cli_start_up_loads_no_dataclasses_inspect_or_typing():
    # Every command would pay for these at start-up: dataclasses pulls in inspect, ast,
    # dis and tokenize, and typing takes a few ms; CSV lines are joined, with no csv module.
    # -S keeps a site hook from preloading one.
    script = (
        "import sys, hyperappell.cli\n"
        "code = hyperappell.cli.main(['gen', '--n', '2', '--m', '3', '--format', 'csv'])\n"
        "print(code, sorted({'csv', 'dataclasses', 'inspect', 'typing'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_repeated_runs_are_byte_identical():
    first = run_cli("gen", "--n", "3", "--m", "5")
    second = run_cli("gen", "--n", "3", "--m", "5")
    assert first.stdout == second.stdout


def test_negative_rationals_as_separate_arguments():
    for *args, flag, value in (
        ("matrices", "--m", "2", "--family", "frobenius-euler", "--lambda", "-3/5"),
        ("gen", "--n", "2", "--m", "3", "--c0", "-3/7"),
        ("matrices", "--m", "3", "--pascal", "-1/2"),
        ("eval", "--n", "2", "--m", "3", "--point", "-1/2,-1,3"),
        ("exp", "--n", "1", "--order", "4", "--point", "-1,2/3"),
    ):
        attached = run_cli(*args, f"{flag}={value}")
        separate = run_cli(*args, flag, value)
        assert attached.returncode == 0, attached.stderr
        assert (separate.returncode, separate.stdout) == (0, attached.stdout), separate.stderr


def test_verify_huge_dimension_finishes():
    # the coefficient cross-check takes r factors, not double factorials of n
    proc = run_cli("verify", "--n", "1000000000", "--m", "3", timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True


def test_verify_high_dimension_stays_in_binary_form():
    # expanding into 201 variables would not finish; the binary form does
    proc = run_cli("verify", "--n", "200", "--m", "12")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(seq, column=None):
        raise RuntimeError("injected")

    monkeypatch.setattr(operators, "certify", broken)
    assert cli.main(["verify", "--n", "2", "--m", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "injected" in err
    assert err.count("\n") == 1


# -- input fuzzing ---------------------------------------------------------------


# gen files, each with an eval point that fits its n
FUZZ_BASES = [
    (build_family(2, 4).to_json(), "1,2,0"),
    (build_family(3, 3, "frobenius-euler", lam=Fraction(-2, 5)).to_json(), "1/2,1,0,-1"),
]


def _paths(node, path=()):
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


@st.composite
def mutated_gen_files(draw):
    """A gen file with one field mutated, and a point that fits the original n."""
    base, point = draw(st.sampled_from(FUZZ_BASES))
    doc = copy.deepcopy(base)
    kind = draw(st.sampled_from(["swap-type", "zero-denominator", "huge", "drop", "add-term"]))
    if kind == "add-term":
        poly = draw(st.sampled_from(doc["polys"]))
        p, q = draw(st.integers(-9, 9)), draw(st.integers(1, 9))
        i, j = draw(st.integers(0, 5)), draw(st.integers(0, 5))
        poly["terms"].append({"i": i, "j": j, "a": f"{p}/{q}"})
        return doc, point
    paths = list(_paths(doc))
    if kind == "zero-denominator":
        paths = [(path, v) for path, v in paths if isinstance(v, str)]
    elif kind == "huge":
        paths = [(path, v) for path, v in paths if isinstance(v, (int, str))]
    path, value = draw(st.sampled_from(paths))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "swap-type":
        others = [v for v in (None, True, 1.5, 3, "3", "x", [], {}) if type(v) is not type(value)]
        parent[path[-1]] = draw(st.sampled_from(others))
    elif kind == "zero-denominator":
        parent[path[-1]] = value.split("/")[0] + "/0"
    else:
        parent[path[-1]] = draw(st.sampled_from([10**30, -(10**30), str(10**30), f"1/{10**30}"]))
    return doc, point


@settings(max_examples=500, deadline=None)
@given(case=mutated_gen_files(), command=st.sampled_from(["verify", "eval"]))
def test_mutated_input_file_exits_0_1_or_2(tmp_path_factory, case, command):
    doc, point = case
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--input", str(path)] + (["--point", point] if command == "eval" else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert status in (0, 1, 2), (status, err)
    assert "Traceback" not in err and "internal error" not in err, err
    if status == 1:
        # a failing degree carries its witness; once every degree passes, only a constant term
        # that is not c_0 t_k of the family's column fails the file
        report = json.loads(out)
        failed = [r for r in report["results"] if not (r["monogenic"] and r["ladder"])]
        assert all("witness" in r for r in failed), out
        assert bool(failed) != ("family_mismatch" in report), out
    if status == 2:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1, err
    else:
        # a file that loads carries a header the builder accepts
        lam = doc.get("lambda")
        build_family(
            doc["n"], doc["m"], doc["family"], c0=Fraction(doc["coeffs"][0]),
            lam=None if lam is None else Fraction(lam), shift=doc.get("s", 0),
        )

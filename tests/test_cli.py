import contextlib
import copy
import csv
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperappell import (
    FAMILIES,
    Paravector,
    TriMatrix,
    appell,
    build_family,
    build_phi,
    certify,
    cli,
    coefficient_sequence,
    creation_matrix,
    derivation_matrix,
    pascal_matrix,
    transfer_matrix,
)

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
        assert "unrecognized arguments: --float" in proc.stderr


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

    monkeypatch.setattr(cli, "INPUT_BUDGET", size)
    loaded = run_main([*command, "--input", str(path)])
    assert loaded[0] == 0 and run_piped()[0] == loaded

    def refuse(*args, **kwargs):
        raise AssertionError("a file past the budget must not be parsed")

    monkeypatch.setattr(cli, "INPUT_BUDGET", size - 1)
    monkeypatch.setattr(json, "loads", refuse)
    budget = f"the --input budget of {size - 1} bytes\n"
    assert run_main([*command, "--input", str(path)]) == (
        2, "", f"error: {path} holds {size} bytes, more than {budget}"
    )
    piped, name = run_piped()
    assert piped == (2, "", f"error: {name} holds more than {budget}")


@pytest.mark.parametrize("command", [("verify",), ("eval", "--point", "1,2,3")])
def test_input_past_the_term_budget_exits_2_while_it_is_parsed(tmp_path, monkeypatch, command):
    # the byte budget bounds the text, not the objects json.loads makes of it: the parse counts
    # the terms and the file's top object, not the members, so a gen file of SIZE_BUDGET - 1 terms
    # loads; a member holding no term counts, so members cannot be piled up for free instead
    path = tmp_path / "seq.json"
    gen = ["gen", "--n", "2", "--m", "3", "--family", "euler", "--output", str(path)]
    assert run_main(gen)[0] == 0
    payload = json.loads(path.read_text())
    terms = sum(len(member["terms"]) for member in payload["polys"])
    monkeypatch.setattr(cli, "SIZE_BUDGET", terms + 1)
    assert run_main([*command, "--input", str(path)])[0] == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a file past the budget must not be loaded")

    monkeypatch.setattr(appell.AppellSequence, "from_json", refuse)
    monkeypatch.setattr(cli, "SIZE_BUDGET", terms)
    expected = (2, "", f"error: {path} holds more than the budget of {terms} terms\n")
    assert run_main([*command, "--input", str(path)]) == expected
    for members in ([{"k": 0, "terms": []}], [{"k": 0, "terms": [{"k": 0, "terms": [{}]}]}]):
        path.write_text(json.dumps({**payload, "polys": members * terms}))
        assert run_main([*command, "--input", str(path)]) == expected


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


def materialized(value):
    """`value` with every lazy array (a generator, a map) made a list, as json.dumps needs."""
    if isinstance(value, dict):
        return {key: materialized(item) for key, item in value.items()}
    if value is None or isinstance(value, (str, int, float)):
        return value
    return [materialized(item) for item in value]


@pytest.mark.parametrize("name", sorted(WRITER_CASES))
def test_json_output_is_json_dumps(tmp_path, monkeypatch, name):
    doc = build_family(3, 12, "frobenius-euler", lam=Fraction(-3, 7)).to_json()
    doc["polys"][7]["terms"][2]["a"] = "5/3"
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(doc))
    argv = [str(corrupted) if arg == "CORRUPTED" else arg for arg in WRITER_CASES[name]]
    fast = run_main(argv)
    calls = []

    def json_dumps(payload, write):
        calls.append(payload)
        write(json.dumps(materialized(payload), sort_keys=True, indent=2) + "\n")

    monkeypatch.setattr(cli, "write_json", json_dumps)
    assert run_main(argv) == fast
    assert len(calls) == 1
    assert fast[0] == (1 if name == "verify-witness" else 0), fast[2]
    assert ('"witness"' in fast[1]) == (name == "verify-witness")


def json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


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
    """stdout that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


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


def peak_bytes(argv) -> int:
    """tracemalloc peak of one in-process command, its output sent to devnull."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def cli_peak_bytes(m: int, fmt: str = "json", command=("gen",)) -> int:
    """peak_bytes of a command at n = 3 and order m, frobenius-euler at lambda = -4/7."""
    argv = [*command, "--n", "3", "--m", str(m), "--family", "frobenius-euler", "--lambda=-4/7"]
    return peak_bytes(argv + ["--format", fmt])


def test_gen_memory_grows_as_m_squared():
    # gen holds phi's O(m^2) terms and one row of T, never the O(m^3) terms of T phi:
    # doubling m should about quadruple the peak, where holding the sequence gives about 8
    cli_peak_bytes(2)  # one-time allocations of a first run
    small, large = cli_peak_bytes(24), cli_peak_bytes(48)
    assert large / small < 4, (small, large)


def test_gen_csv_memory_grows_as_m_squared():
    # CSV rows are written as they are drawn, like JSON terms
    cli_peak_bytes(2, "csv")
    small, large = cli_peak_bytes(24, "csv"), cli_peak_bytes(48, "csv")
    assert large / small < 4, (small, large)


def test_gen_pretty_memory_grows_as_m_squared():
    # pretty members are formatted and written one at a time, like JSON terms
    cli_peak_bytes(2, "pretty")
    small, large = cli_peak_bytes(24, "pretty"), cli_peak_bytes(48, "pretty")
    assert large / small < 4, (small, large)


@pytest.mark.parametrize("command", [("verify",), ("eval", "--point", "1,2,3,4")])
def test_verify_and_eval_memory_grows_as_m_squared(command):
    # certify and eval_at take each member as it is drawn from the series column and drop it:
    # doubling m about quadruples the peak (phi and one member), holding the sequence about 7x
    cli_peak_bytes(2, command=command)
    small, large = cli_peak_bytes(24, command=command), cli_peak_bytes(48, command=command)
    assert large / small < 5, (small, large)


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize("flags", [[], ["--tilde", "--n", "3", "--shift", "2"]], ids=["H", "tilde"])
def test_subdiagonal_matrices_memory_stays_flat_in_m(flags, fmt):
    # H and the derivation matrix are drawn one row at a time from their subdiagonal: tripling m
    # leaves the peak about the same (0.9-1.7x), where building the matrix first gives 4.6-6.2x
    argv = lambda m: ["matrices", "--m", str(m), *flags, "--format", fmt]
    peak_bytes(argv(2))  # one-time allocations of a first run
    small, large = peak_bytes(argv(100)), peak_bytes(argv(300))
    assert large / small < 2, (small, large)


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
        values = [{"k": k, "value": mv.to_json()} for k, mv in enumerate(seq.eval_at(point))]
        status, out, err = run_main(["eval", *flags, "--point", "1/2,-1,2,1/3"])
        assert (status, err, json.loads(out)["values"]) == (0, "", values)


@pytest.mark.parametrize("family", FAMILIES)
def test_verify_builds_no_matrix_and_no_closed_form(tmp_path, monkeypatch, family):
    # certify has one route per identity: the coefficient recurrence and the intertwining
    # identity on its one nonzero diagonal; the matrices and the closed form are test references,
    # and no other subcommand builds a matrix either
    counts = {"TriMatrix": 0, "closed_form_coefficient": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(TriMatrix, "__init__", counted("TriMatrix", TriMatrix.__init__))
    monkeypatch.setattr(
        TriMatrix, "_of_rows", classmethod(counted("TriMatrix", TriMatrix._of_rows.__func__))
    )
    monkeypatch.setattr(
        appell, "closed_form_coefficient",
        counted("closed_form_coefficient", appell.closed_form_coefficient),
    )
    lam = "-4/7" if family == "frobenius-euler" else None
    for n in range(1, 5):
        for m in range(13):
            flags = ["--n", str(n), "--m", str(m), "--family", family, *lambda_flags(lam)]
            path = tmp_path / f"n{n}_m{m}.json"
            assert run_main(["gen", *flags, "--output", str(path)]) == (0, "", "")
            from_flags = run_main(["verify", *flags])
            assert from_flags[0] == 0 and json.loads(from_flags[1])["ok"] is True
            assert run_main(["verify", "--input", str(path)]) == from_flags
    # no other command builds one either: every matrix is drawn row by row from its O(m) rule
    point = ["--point", "1/2,-1,2,1/3,4"]
    commands = [
        ["eval", *flags, *point], ["eval", "--input", str(path), *point],
        ["exp", "--n", "4", *point, "--order", "12"],
        ["matrices", "--m", "12"], ["matrices", "--m", "12", "--tilde", "--n", "3", "--shift", "2"],
        ["matrices", "--m", "12", "--pascal=-3/7"],
    ]
    if family != "canonical":
        commands.append(["matrices", "--m", "12", "--family", family, *lambda_flags(lam)])
    for argv in commands:
        for fmt in ("json", "csv", "pretty"):
            assert run_main([*argv, "--format", fmt])[0] == 0, (argv, fmt)
    assert counts == {"TriMatrix": 0, "closed_form_coefficient": 0}
    creation_matrix(2)  # the counter's positive control
    assert counts["TriMatrix"] == 1


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
    def broken(seq):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "certify", broken)
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
        failed = [r for r in json.loads(out)["results"] if not (r["monogenic"] and r["ladder"])]
        assert failed and all("witness" in r for r in failed), out
    if status == 2:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1, err
    else:
        # a file that loads carries a header the builder accepts
        lam = doc.get("lambda")
        build_family(
            doc["n"], doc["m"], doc["family"], c0=Fraction(doc["coeffs"][0]),
            lam=None if lam is None else Fraction(lam), shift=doc.get("s", 0),
        )

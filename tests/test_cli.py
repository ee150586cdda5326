import argparse
import ast
import csv
import importlib.util
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import ROOT, run_python, src_environ
from test_recorded_outputs import RECORDED

import eulerlp
from eulerlp import GridConfig, PadicContext, cli, euler, padic_l, run_grid, teichmuller_power
from eulerlp.cli import COMMANDS, main
from eulerlp.harness import CHECKS
from eulerlp.reports import CSV_COLUMNS, CongruenceReport, reports_to_csv, reports_to_jsonl

WORKLOADS = ROOT / "perfbench" / "workloads.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEulerCommand:
    def test_lists_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "euler", "--nmax", "7")
        lines = out.strip().splitlines()
        assert code == 0
        assert len(lines) == 8
        assert json.loads(lines[0]) == {"n": 0, "value": "1/1"}
        assert json.loads(lines[7]) == {"n": 7, "value": "17/8"}

    def test_negative_nmax_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "euler", "--nmax", "-1")
        assert code == 2
        assert "error" in err

    def test_prints_numerators_past_the_digit_limit(self, capsys, monkeypatch):
        # 4401 digits, past Python's default int-to-str limit of 4300
        numerator = 10**4400 + 1
        monkeypatch.setattr(euler, "euler_number_pairs", lambda nmax: [(numerator, 2)])
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, "euler", "--nmax", "0")
        assert code == 0
        assert json.loads(out)["value"] == "1" + "0" * 4399 + "1/2"
        assert sys.get_int_max_str_digits() == limit

    def test_runs_on_pythons_without_a_digit_limit(self, capsys, monkeypatch):
        # Python before 3.10.7 has neither function
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        monkeypatch.delattr(sys, "set_int_max_str_digits")
        code, out, _ = run_cli(capsys, "euler", "--nmax", "7")
        assert code == 0
        assert json.loads(out.splitlines()[7]) == {"n": 7, "value": "17/8"}

    def test_real_table_past_the_digit_limit(self, capsys):
        # Numerators pass the default int-to-str limit of 4300 digits from
        # n = 1843 on; every line must equal the benchmark's tangent-number
        # oracle.
        nmax = 1900
        code, out, _ = run_cli(capsys, "euler", "--nmax", str(nmax))
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == nmax + 1
        spec = importlib.util.spec_from_file_location("run", ROOT / "perfbench" / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert run.check_euler_table(out) is None
        finally:
            sys.set_int_max_str_digits(limit)
        numerator = json.loads(lines[nmax - 1])["value"].split("/")[0]
        assert len(numerator.lstrip("-")) > 4300


class TestLpCommand:
    def test_exact_value_at_minus_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "lp", "--p", "3", "--s", "-1", "--t", "1", "--precision", "6"
        )
        assert code == 0
        record = json.loads(out)
        assert record["character"] == {"p": 3, "kind": "teichmuller", "t": 1}
        assert record["value"]["digits"] == [1, 0, 0, 0, 0, 0]

    def test_default_exponent_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "lp", "--p", "5", "--s", "2")
        assert code == 0
        record = json.loads(out)
        assert record["character"]["t"] == 0
        assert record["value"]["valuation"] >= 1  # vanishes mod p

    def test_composite_p_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "lp", "--p", "9", "--s", "1")
        assert code == 2
        assert "odd prime" in err


class TestVerifyCommand:
    def test_theorem6_anchor(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--check", "theorem6",
            "--p", "3", "--n", "2", "--r", "1", "--precision", "3",
        )
        assert code == 0
        record = json.loads(out)
        assert record["match"] is True
        assert record["lhs"]["digits"] == [0, 0, 2]

    def test_interpolation(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--check", "interpolation",
            "--p", "5", "--n", "1", "--t", "1",
        )
        assert code == 0
        assert json.loads(out)["match"] is True

    def test_kummer(self, capsys):
        # each --t names w^0 at p = 7, and the report gives it reduced, as
        # interpolation does
        for t in ([], ["--t", "6"], ["--t", "-12"]):
            code, out, _ = run_cli(
                capsys, "verify", "--check", "kummer", "--p", "7", "--k", "2", *t
            )
            assert code == 0
            record = json.loads(out)
            assert record["match"] is True
            assert record["params"]["k2"] == 9
            assert record["params"]["t"] == 0, t

    @pytest.mark.parametrize("precision", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["--check", "theorem6", "--p", "3", "--n", "2", "--r", "1"],
            ["--check", "interpolation", "--p", "5", "--n", "1"],
            ["--check", "kummer", "--p", "7", "--k", "2"],
        ],
        ids=["theorem6", "interpolation", "kummer"],
    )
    def test_precision_below_one_is_usage_error(self, capsys, argv, precision):
        code, out, err = run_cli(capsys, "verify", *argv, "--precision", precision)
        assert code == 2
        assert out == ""
        assert "precision must be >= 1" in err

    def test_distribution(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--check", "distribution",
            "--n", "3", "--f", "5", "--x=-2/7",
        )
        assert code == 0
        record = json.loads(out)
        assert record["match"] is True
        assert record["params"]["x"] == "-2/7"

    def test_powersum(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--check", "powersum", "--n", "6", "--m", "4"
        )
        assert code == 0
        assert json.loads(out)["match"] is True

    def test_binomial_emits_both_identities(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--check", "binomial", "--r", "3", "--k", "2", "--j", "4",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert {json.loads(line)["params"]["identity"] for line in lines} == {
            "ratio",
            "product",
        }

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--check", "theorem6", "--n", "2", "--r", "1"
        )
        assert code == 2
        assert "--p" in err

    def test_even_modulus_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--check", "distribution", "--n", "3", "--f", "4"
        )
        assert code == 2
        assert out == ""
        assert "f must be odd" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("interpolation", "--p", "5", "--n", "0"), "error: n must be >= 1"),
            (("distribution", "--n", "-1", "--f", "3"), "error: n must be >= 0, got -1"),
            (("powersum", "--n", "2", "--m", "-1"), "error: m must be >= 0, got -1"),
            (("powersum", "--n", "-2", "--m", "1"), "error: n must be >= 0, got -2"),
        ],
    )
    def test_out_of_range_index_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "verify", "--check", *argv)
        assert code == 2
        assert out == ""
        assert message in err

    def test_vanishing_ratio_denominator_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "verify", "--check", "binomial", "--r", "-1", "--k", "1", "--j", "1",
        )
        assert code == 2
        assert "r + k" in err

    @pytest.mark.parametrize(
        "k, j, named", [("-1", "1", "k=-1"), ("1", "-1", "j=-1")]
    )
    def test_negative_binomial_index_is_usage_error(self, capsys, k, j, named):
        code, out, err = run_cli(
            capsys, "verify", "--check", "binomial", "--r", "2", "--k", k, "--j", j
        )
        assert code == 2
        assert out == ""
        assert named in err

    def test_zero_denominator_point_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--check", "distribution", "--n", "3", "--f", "5", "--x", "1/0"])
        assert exc.value.code == 2
        assert "--x" in capsys.readouterr().err

    def test_unknown_check_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--check", "frobnicate"])
        assert exc.value.code == 2

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--check", "powersum", "--n", "2", "--m", "1",
            "--format", "csv",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("check,")
        assert row.startswith("powersum,")


class TestGridCommand:
    def test_small_grid_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "grid", "--primes", "3", "--r", "1", "--n", "2", "--precision", "3",
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert all(r["match"] for r in records)
        assert sum(r["check"] == "theorem6" for r in records) == 1

    def test_range_syntax(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "grid", "--primes", "3", "--r", "1..3", "--n", "2", "--precision", "2",
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert sum(r["check"] == "theorem6" for r in records) == 3

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "grid", "--primes", "3", "--r", "1", "--n", "2",
            "--precision", "2", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "check,p,params,lhs,rhs,precision,match,lhs_valuation"

    # A grid runs every check at every axis value: a value that one check
    # refuses stops the run before any report is printed, with that
    # check's message.  theorem6 runs first and refuses each of these.
    REFUSED = {
        "--n 3": "n must be even and >= 2, got 3",
        "--n 0": "n must be even and >= 2, got 0",
        "--r 0": "r must be >= 1, got 0",
        "--primes 4": "p must be an odd prime, got 4",
        "--primes 3,5,9": "p must be an odd prime, got 9",
        "--precision 0": "precision must be >= 1, got 0",
    }

    @pytest.mark.parametrize("option", REFUSED)
    def test_value_a_check_refuses_is_usage_error(self, capsys, option):
        flag, value = option.split()
        axes = {"--primes": "3", "--r": "1", "--n": "2", "--precision": "2", flag: value}
        code, out, err = run_cli(capsys, "grid", *(word for pair in axes.items() for word in pair))
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {self.REFUSED[option]}"]

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--r", "4..1"),
            ("--primes", ","),
            ("--n", ""),
            ("--n", "2,,4"),
            ("--primes", "3,x"),
            ("--r", "1..x"),
        ],
    )
    def test_empty_axis_is_usage_error(self, capsys, flag, value):
        axes = {"--primes": "3", "--r": "1", "--n": "2", flag: value}
        argv = ["grid", "--precision", "2"]
        for name, text in axes.items():
            argv += [name, text]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert flag in err


# One grid point of GRID_ARGV per registry check, as a verify argv.
GRID_ARGV = ["grid", "--primes", "5", "--r", "2", "--n", "4", "--precision", "4"]
VERIFY_ARGV = {
    "theorem6": ["--p", "5", "--n", "4", "--r", "2", "--precision", "4"],
    "interpolation": ["--p", "5", "--n", "4", "--t", "3", "--precision", "4"],
    "kummer": ["--p", "5", "--k", "2", "--precision", "4"],
    "distribution": ["--n", "4", "--f", "7", "--x=-2/7"],
    "powersum": ["--n", "4", "--m", "8"],
    "binomial": ["--r", "2", "--k", "2", "--j", "2"],
}


# Two values on every axis, and verify argvs at the later p, r, n and t: a
# grid row carries its n (theorem6), t (interpolation) or j (binomial) values
# as one tuple, so a left side or context carried wrongly from one value of
# that axis to the next shows as a verify line missing from the grid.
MULTI_GRID_ARGV = ["grid", "--primes", "5,7", "--r", "1,2", "--n", "2,4", "--precision", "4"]
MULTI_VERIFY_ARGV = [
    ("theorem6", ["--p", "7", "--n", "4", "--r", "2", "--precision", "4"]),
    ("theorem6", ["--p", "5", "--n", "4", "--r", "1", "--precision", "4"]),
    ("interpolation", ["--p", "7", "--n", "4", "--t", "5", "--precision", "4"]),
    ("interpolation", ["--p", "5", "--n", "2", "--t", "3", "--precision", "4"]),
    ("kummer", ["--p", "7", "--k", "2", "--precision", "4"]),
    ("distribution", ["--n", "4", "--f", "5", "--x", "1/2"]),
    ("powersum", ["--n", "4", "--m", "7"]),
    ("binomial", ["--r", "2", "--k", "2", "--j", "2"]),
]


def _assert_verify_lines_in_grid(capsys, grid_argv, check, verify_argv):
    code, grid_out, _ = run_cli(capsys, *grid_argv)
    assert code == 0
    code, verify_out, _ = run_cli(capsys, "verify", "--check", check, *verify_argv)
    assert code == 0
    grid_lines = grid_out.splitlines()
    verify_lines = verify_out.splitlines()
    assert verify_lines
    for line in verify_lines:
        assert line in grid_lines


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_verify_lines_appear_in_grid_output(capsys, check):
    _assert_verify_lines_in_grid(capsys, GRID_ARGV, check, VERIFY_ARGV[check])


@pytest.mark.parametrize(
    "check, argv", MULTI_VERIFY_ARGV, ids=[" ".join(argv) for _, argv in MULTI_VERIFY_ARGV]
)
def test_verify_lines_appear_in_multi_valued_grid_output(capsys, check, argv):
    _assert_verify_lines_in_grid(capsys, MULTI_GRID_ARGV, check, argv)


# Ceiling on the grid-mixed reports that cannot fail: those whose sides are
# both zero, and distribution at f = 1, which compares E_n(x) with itself.
# kummer compares values that are 0 mod p at every s; interpolation at even t
# compares 0 with 0 by parity, yet still checks that the series cancels.
# Strengthening a check lowers its ceiling.
CANNOT_FAIL_CEILING = {
    "theorem6": 0,
    "interpolation": 51,
    "kummer": 20,
    "distribution": 24,
    "powersum": 3,
    "binomial": 0,
}


def _is_zero(side):
    return not any(side["digits"]) if isinstance(side, dict) else side == "0/1"


def test_grid_mixed_reports_that_cannot_fail_stay_under_a_ceiling(capsys):
    spec = json.loads(WORKLOADS.read_text())["grid-mixed"]
    code, out, _ = run_cli(capsys, *spec["default_argv"])
    assert code == 0
    counts = dict.fromkeys(CANNOT_FAIL_CEILING, 0)
    for line in out.splitlines():
        record = json.loads(line)
        self_compared = record["check"] == "distribution" and record["params"]["f"] == 1
        if self_compared or (_is_zero(record["lhs"]) and _is_zero(record["rhs"])):
            counts[record["check"]] += 1
    assert all(counts[c] <= CANNOT_FAIL_CEILING[c] for c in counts), counts


# The report writer against json as its oracle: every line it writes is
# json.dumps of the same object in compact form.  The writer does not escape
# strings, so every string a report carries must need no escaping.
WIDE_GRID = GridConfig(
    primes=(3, 5, 7, 11, 13, 17, 19, 23, 29, 31), r_values=range(1, 7),
    n_values=(2, 4, 6, 8), precision=20,
)


def _compact(obj):
    return json.dumps(obj, separators=(",", ":"))


def _strings(value):
    """Every str in a wire object, dict keys included."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _strings(item)


def _assert_written_as_json(lines, objects):
    assert len(lines) == len(objects)
    for line, obj in zip(lines, objects):
        assert line == _compact(obj), obj
        for text in _strings(obj):
            assert text.isascii() and text.isprintable(), text
            assert '"' not in text and "\\" not in text, text


def _csv_by_json(reports):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for report in reports:
        writer.writerow(
            "" if v is None else _compact(v) if isinstance(v, (bool, dict)) else str(v)
            for v in report.as_dict().values()
        )
    return buf.getvalue().rstrip("\n")


def test_wide_grid_written_as_json():
    reports = run_grid(WIDE_GRID)
    assert len(reports) == 1260
    objects = [r.as_dict() for r in reports]
    _assert_written_as_json(reports_to_jsonl(reports).split("\n"), objects)
    assert reports_to_csv(reports) == _csv_by_json(reports)


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_verify_written_as_json(capsys, check):
    argv = ["verify", "--check", check, *VERIFY_ARGV[check]]
    _, args = cli._parse(argv)
    reports = CHECKS[check][1](args)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    _assert_written_as_json(out.splitlines(), [r.as_dict() for r in reports])
    assert reports_to_csv(reports) == _csv_by_json(reports)


@pytest.mark.parametrize("s", [-5, 0, 5])
def test_lp_written_as_json(capsys, s):
    code, out, _ = run_cli(capsys, "lp", "--p", "7", "--s", str(s), "--t", "3")
    assert code == 0
    chi = teichmuller_power(3, PadicContext(7, 6))
    value = padic_l(s, chi).as_json_dict()
    obj = {"s": s, "character": chi.descriptor(), "value": value}
    _assert_written_as_json(out.splitlines(), [obj])


@pytest.mark.parametrize("label", ['ra"tio', "ra\\tio", "ra\ntio", "rati\u00f6"])
def test_writer_check_sees_a_string_that_needs_escaping(label):
    # a test-side mutant: a report whose param label json would escape
    report = run_grid(GridConfig(primes=(3,), r_values=(1,), n_values=(2,), precision=2))[-1]
    assert report.params["identity"] == "product"
    params = {**report.params, "identity": label}
    mutant = CongruenceReport(report.check, params, report.lhs, report.rhs)
    with pytest.raises(AssertionError):
        _assert_written_as_json([mutant.to_json()], [mutant.as_dict()])


def test_import_builds_no_euler_table():
    # A CLI call pays for the Euler table it uses; importing the CLI must not
    # build any of it (the benchmark refuses a warm cache after the import).
    probe = (
        "import eulerlp.cli\n"
        "from eulerlp import euler\n"
        "print(euler.euler_number.cache_info().currsize, euler._tangent)"
    )
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "[0]"]



def test_module_entry_point_matches_main(capsys):
    argv = [
        "verify", "--check", "theorem6",
        "--p", "3", "--n", "2", "--r", "1", "--precision", "3",
    ]
    proc = run_python("-m", "eulerlp", *argv)
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert proc.stdout == out


def test_module_entry_point_usage_error():
    proc = run_python(
        "-m", "eulerlp", "verify", "--check", "kummer", "--p", "7", "--k", "2", "--t", "1"
    )
    assert proc.returncode == 2
    assert "error: the congruence needs t = 0 mod p-1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_prints_sides_past_the_digit_limit():
    # E_1569(1/3) and the distribution sum are the smallest --f 3 --x 1/3
    # sides whose numerators pass Python's default int-to-str limit of 4300
    # digits; the comparison holds and must print, not give a usage error
    proc = run_python(
        "-m", "eulerlp", "verify", "--check", "distribution", "--n", "1569", "--f", "3",
        "--x", "1/3",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    report = json.loads(proc.stdout)
    assert report["match"] is True
    assert '"match":true' in proc.stdout
    assert max(len(part) for part in report["lhs"].lstrip("-").split("/")) > 4300


WIDE_GRID_ARGV = (
    "grid --primes 3,5,7,11,13,17,19,23,29,31 --r 1..6 --n 2,4,6,8 --precision 20"
)
WIDE_GRID_FIRST = (
    '{"check":"theorem6","p":3,"params":{"p":3,"n":2,"r":1,"M":20},'
    '"lhs":{"p":3,"precision":20,"digits":[0,0,2,2,0,0,2,2,0,0,2,2,0,0,2,2,0,0,2,2],'
    '"valuation":2},"rhs":{"p":3,"precision":20,'
    '"digits":[0,0,2,2,0,0,2,2,0,0,2,2,0,0,2,2,0,0,2,2],"valuation":2},'
    '"precision":20,"match":true,"lhs_valuation":2}\n'
)


@pytest.mark.parametrize(
    "argv, first_line",
    [("euler --nmax 3000", '{"n":0,"value":"1/1"}\n'), (WIDE_GRID_ARGV, WIDE_GRID_FIRST)],
    ids=["euler", "wide-grid"],
)
def test_closed_stdout_exits_141_without_a_traceback(argv, first_line):
    # the reader of `eulerlp ... | head -1` goes away after one line, while
    # far more than a pipe buffer is still to be written: megabytes of
    # Euler numbers, or the wide grid's 332,964 bytes.  grid-mixed's 72 KB
    # could fit in the pipe plus the reader's buffer and then exit 0.
    with subprocess.Popen(
        [sys.executable, "-m", "eulerlp", *argv.split()],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_environ(),
    ) as proc:
        assert proc.stdout.readline() == first_line.encode()
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141
    assert "Traceback" not in stderr
    assert stderr == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_write_error_on_stdout_is_a_one_line_error():
    # every write to /dev/full fails with ENOSPC; the output is lost, which
    # is neither a mismatch (exit 1) nor a closed pipe (exit 141)
    with open("/dev/full", "w") as full:
        proc = run_python("-m", "eulerlp", "euler", "--nmax", "5",
                          capture_output=False, stdout=full, stderr=subprocess.PIPE)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: cannot write output: ")


# The child caps its own address space at 1 GiB before it runs main, so the
# allocation fails at once whatever the host's overcommit setting is, and
# nothing is really allocated.
CAPPED_MAIN = """\
import resource, sys
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))
from eulerlp.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(sys.platform == "win32", reason="needs the resource module")
@pytest.mark.parametrize(
    "argv",
    ["euler --nmax 1000000000000", "grid --primes 3 --r 1..100000000000 --n 2"],
    ids=["euler-table", "grid-axis"],
)
def test_input_too_large_for_memory_is_a_one_line_error(argv):
    # a tangent table of 5 * 10^11 entries, or an r axis of 10^11 values:
    # not a mismatch (exit 1) and not a traceback
    proc = run_python("-X", "dev", "-c", CAPPED_MAIN, *argv.split())
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def test_stdout_closed_at_start_is_not_an_error(capsys, monkeypatch):
    # a process started with stdout closed (`eulerlp ... >&-`) has
    # sys.stdout None, and print writes nothing
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["euler", "--nmax", "3"]) == 0


# Every run compiles the whole package when bytecode is not written, so each
# library line adds to start-up; ROADMAP "Measured, keep" sets the ceiling.
LIBRARY_LINE_CEILING = 1410


def test_library_stays_under_its_line_ceiling():
    # lines as `cat src/eulerlp/*.py | wc -l` counts them: newline characters
    sources = (ROOT / "src" / "eulerlp").glob("*.py")
    lines = sum(path.read_bytes().count(b"\n") for path in sources)
    assert lines <= LIBRARY_LINE_CEILING, lines


def _names_in_code(path):
    """Every name a module's code reads, binds, imports or looks up as an
    attribute; docstrings and comments are not code."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_export_has_a_user():
    # an export is used when the docs or a demo name it, or when code in a
    # library module other than the one defining it refers to it
    texts = [(ROOT / name).read_text() for name in ("README.md", "PAPER.md")]
    texts += [path.read_text() for path in (ROOT / "demos").glob("*.py")]
    package = ROOT / "src" / "eulerlp"
    code = {path.stem: _names_in_code(path) for path in package.glob("*.py")}
    del code["__init__"]
    unused = []
    for name in eulerlp.__all__:
        home = getattr(eulerlp, name).__module__.rpartition(".")[2]
        named = any(re.search(rf"\b{name}\b", text) for text in texts)
        if not named and not any(name in names for stem, names in code.items() if stem != home):
            unused.append(name)
    assert unused == []


# conftest.py's cold_caches, mutated, recorded and source_mutant are the one
# way a test changes the library: each patch undoes only itself and clears
# every cache.  A test module may patch sys, and this one the table
# cmd_euler prints, which sits behind no cache.
ALLOWED_PATCHES = {("test_cli.py", "euler", "euler_number_pairs")}
REFUSED_CALLS = ("clear_library_caches", "cache_clear", "exec", "getsource")


def _patches_outside_conftest(path):
    """(line, call) of each call in a test module that patches anything but
    sys, recompiles the library or clears its caches, or undoes a patch."""
    for node in ast.walk(ast.parse(path.read_text())):
        call = ast.unparse(node.func) if isinstance(node, ast.Call) else ""
        if call == "monkeypatch.undo" or call.split(".")[-1] in REFUSED_CALLS:
            yield node.lineno, call
        elif call in ("monkeypatch.setattr", "monkeypatch.delattr"):
            target = ast.unparse(node.args[0])
            name = getattr(node.args[1], "value", None) if len(node.args) > 1 else None
            if target != "sys" and (path.name, target, name) not in ALLOWED_PATCHES:
                yield node.lineno, call


def test_only_conftest_patches_the_library():
    modules = sorted(set((ROOT / "tests").glob("*.py")) - {ROOT / "tests" / "conftest.py"})
    assert len(modules) > 10
    found = {path.name: list(_patches_outside_conftest(path)) for path in modules}
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_import_loads_no_argparse_gettext_locale_dataclasses_inspect_csv_fractions_or_json():
    # -S: no .pth file of the site packages can load a module first and
    # hide its import by eulerlp; fractions brings decimal and numbers
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import eulerlp.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
        "eulerlp.reports.reports_to_csv([])\n"
        "print('csv' in sys.modules)"
    )
    proc = run_python("-S", "-c", probe)
    assert proc.returncode == 0, proc.stderr
    imported, csv_after = proc.stdout.splitlines()
    assert "eulerlp.cli" in imported.split()
    assert not {
        "argparse", "gettext", "locale", "dataclasses", "inspect", "ast", "dis", "tokenize",
        "csv", "fractions", "decimal", "numbers", "json",
    } & set(imported.split())
    assert csv_after == "True"


def test_commands_load_no_fractions_json_or_future():
    # exact values are int pairs inside the library: no command loads
    # fractions (nor decimal and numbers, which it imports) unless --x is
    # given; every line is written by reports._json, not json; and no
    # module defers its annotations through __future__
    verify = [
        ["verify", "--check", check, *(a for a in argv if not a.startswith("--x"))]
        for check, argv in VERIFY_ARGV.items()
    ]
    grid = json.loads(WORKLOADS.read_text())["grid-mixed"]["default_argv"]
    lp = [["lp", "--p", "7", "--s", s, "--t", "3"] for s in ("-5", "0", "5")]
    runs = [["euler", "--nmax", "7"], grid, [*grid, "--format", "csv"], *verify, *lp]
    probe = (
        "import contextlib, io, sys\n"
        "import eulerlp.cli\n"
        "for argv in %r:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert eulerlp.cli.main(argv) == 0, argv\n"
        "    print(*sorted({'fractions', 'decimal', 'numbers', 'json', '__future__'}\n"
        "                  & set(sys.modules)))\n"
    ) % (runs,)
    proc = run_python("-S", "-c", probe)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split("\n")[:-1]
    assert len(loaded) == len(runs)
    assert all(line == "" for line in loaded), dict(zip(map(tuple, runs), loaded))


def test_partial_zeta_values_load_no_fractions():
    # the series and the closed form of the partial zeta value at -n, at
    # F = p and at the composite F = 15, reach no Fraction
    probe = (
        "import sys\n"
        "from eulerlp import PadicContext, padic_partial_zeta_at_neg, series_closed_check\n"
        "for p in (3, 5, 7):\n"
        "    ctx = PadicContext(p, 6)\n"
        "    for n in range(1, 7):\n"
        "        assert all(series_closed_check(n, a, ctx).match for a in range(1, p))\n"
        "for a in (1, 2, 4, 7, 8, 11, 13, 14):\n"
        "    padic_partial_zeta_at_neg(3, a, 15, PadicContext(5, 6))\n"
        "print('fractions' in sys.modules)\n"
    )
    proc = run_python("-S", "-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# The argparse parser the option table replaced, kept as the oracle the table
# is compared against.
def _rational(text: str) -> Fraction:
    """argparse type for "num/den" (or an integer) with a nonzero denominator."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected num/den with a nonzero denominator, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerlp",
        description="Exact Euler numbers, p-adic l-values, and congruence checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_euler = sub.add_parser("euler", help="print Euler numbers")
    p_euler.add_argument("--nmax", type=int, required=True)
    p_euler.set_defaults(func=cli.cmd_euler)

    p_lp = sub.add_parser("lp", help="evaluate l_p(s, w^t)")
    p_lp.add_argument("--p", type=int, required=True)
    p_lp.add_argument("--s", type=int, required=True)
    p_lp.add_argument("--t", type=int, default=0)
    p_lp.add_argument("--precision", type=int, default=6)
    p_lp.set_defaults(func=cli.cmd_lp)

    p_verify = sub.add_parser("verify", help="run one check")
    p_verify.add_argument("--check", choices=tuple(CHECKS), required=True)
    p_verify.add_argument("--p", type=int)
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--r", type=int)
    p_verify.add_argument("--k", type=int)
    p_verify.add_argument("--t", type=int, default=0)
    p_verify.add_argument("--f", type=int)
    p_verify.add_argument("--m", type=int)
    p_verify.add_argument("--j", type=int)
    # the table's default is the int 0, which equals Fraction(0) and loads no
    # fractions module; argparse applies no type to a non-string default
    p_verify.add_argument("--x", type=_rational, default=0, help='rational point "num/den"')
    p_verify.add_argument("--precision", type=int, default=6)
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.set_defaults(func=cli.cmd_verify)

    p_grid = sub.add_parser("grid", help="run all suites over a grid")
    p_grid.add_argument("--primes", required=True, help='e.g. "3,5,7"')
    p_grid.add_argument("--r", required=True, help='e.g. "1..4"')
    p_grid.add_argument("--n", required=True, help='e.g. "2,4,6"')
    p_grid.add_argument("--precision", type=int, default=6)
    p_grid.add_argument("--format", choices=("json", "csv"), default="json")
    p_grid.set_defaults(func=cli.cmd_grid)

    return parser


def _oracle_parse(argv):
    """(handler name, {option: value}) from the argparse oracle."""
    namespace = build_parser().parse_args(argv)
    options = vars(namespace)
    handler = options.pop("func")
    assert handler is getattr(cli, COMMANDS[options.pop("command")][0])
    return handler.__name__, options


def _readme_argv():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line]


def _workload_argv():
    for spec in json.loads(WORKLOADS.read_text()).values():
        yield spec["default_argv"]
        keys = list(spec["choices"])
        for values in itertools.product(*(spec["choices"][key] for key in keys)):
            fill = dict(zip(keys, values))
            yield [word.format(**fill) for word in spec["template"]]


def _ci_argv():
    """Every eulerlp argv of the CI workflow."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    for line in text.splitlines():
        if line.strip().startswith(("#", "- name")):
            continue
        for match in re.finditer(r"(?<![\w/.-])eulerlp (.*)", line):
            # the argv ends at a redirection, a pipe or a command substitution
            yield re.split(r"\s+\d*>|\s*[|)]", match.group(1))[0].split()


def _argv_in_this_file():
    """Every all-literal argv this module passes to main, run_cli or
    ``run_python("-m", "eulerlp", ...)``."""
    for node in ast.walk(ast.parse(Path(__file__).read_text())):
        name = getattr(getattr(node, "func", None), "id", None)
        if name not in ("main", "run_cli", "run_python"):
            continue
        args = node.args[1:] if name == "run_cli" else node.args
        if name == "run_python":
            if [getattr(a, "value", None) for a in args[:2]] != ["-m", "eulerlp"]:
                continue
            args = args[2:]
        if name == "main" and args and isinstance(args[0], ast.List):
            args = args[0].elts
        if args and all(isinstance(a, ast.Constant) and isinstance(a.value, str) for a in args):
            yield [a.value for a in args]


# Each form the table promises: --opt=value, negative values, the last repeat
# winning, a unique prefix, and an exact name beating a longer one.
FORM_ARGV = [
    ["lp", "--p=7", "--s=-3", "--t", "5", "--precision=8"],
    ["lp", "--p", "3", "--p", "5", "--s", "1", "--s", "-2"],
    ["euler", "--nmax", "-1"],
    ["grid", "--prim", "3", "--r", "1", "--n=2", "--prec", "3", "--form", "csv"],
    ["verify", "--check", "kummer", "--p", "7", "--k", "2", "--precision", "3"],
    ["verify", "--che=kummer", "--prec=3", "--k=2", "--p=-7"],
    ["verify", "--check", "distribution", "--n", "3", "--f", "5", "--x=-2/7", "--x", "3"],
]
# --x in Fraction's grammar: a decimal, a fraction not in lowest terms, a
# negative one (argparse reads a separate "-2/7" as an option), an exponent
# past the float range, and a zero denominator (exit 2)
FORM_ARGV += [
    ["verify", "--check", "distribution", "--n", "4", "--f", "3", *x]
    for x in (["--x", "0.5"], ["--x", "2/6"], ["--x=-2/7"], ["--x", "1e400"], ["--x", "1/0"])
]

PARITY_CORPUS = {
    "readme": list(_readme_argv()),
    "workloads": list(_workload_argv()),
    # what CI runs: the recorded outputs, through tier-1, and the workflow's
    # own steps
    "ci": [argv.split() for argv in RECORDED] + list(_ci_argv()),
    "test_cli": list(_argv_in_this_file())
    + [GRID_ARGV, MULTI_GRID_ARGV]
    + [["verify", "--check", c, *argv] for c, argv in [*VERIFY_ARGV.items(), *MULTI_VERIFY_ARGV]],
    "forms": FORM_ARGV,
}


def _outcome(parse, argv):
    """(handler name, {option: (type, value)}), or the exit status of a
    rejected argv or of -h."""
    try:
        handler, options = parse(list(argv))
    except SystemExit as exc:
        return exc.code
    if handler == "_print_help":
        return 0
    return handler, {name: (type(value), value) for name, value in options.items()}


@pytest.mark.parametrize("source", sorted(PARITY_CORPUS))
def test_option_table_parses_as_argparse_did(capsys, source):
    corpus = PARITY_CORPUS[source]
    assert len(corpus) >= 5, corpus
    for argv in corpus:
        assert _outcome(cli._parse, argv) == _outcome(_oracle_parse, argv), argv
    capsys.readouterr()


# argv that both parsers reject, and the option or command the error names
BAD_ARGV = [
    ([], "command"),
    (["frobnicate", "--nmax", "3"], "frobnicate"),
    (["euler", "--nmax", "3", "--bogus", "1"], "--bogus"),
    (["euler", "--nmax"], "--nmax"),
    (["grid", "--primes", "--r", "1", "--n", "2"], "--primes"),
    (["grid", "--primes", "3", "--r", "1"], "--n"),
    (["lp", "--p", "x", "--s", "1"], "--p"),
    (["grid", "--primes", "3", "--r", "1", "--n", "2", "--format", "xml"], "--format"),
    (["verify", "--check", "frobnicate"], "--check"),
    (["verify", "--check", "distribution", "--n", "3", "--f", "5", "--x", "1/0"], "--x"),
    (["euler", "--nmax", "3", "stray"], "stray"),
    (["grid", "--pr", "3", "--primes", "3", "--r", "1", "--n", "2"], "--pr"),
    (["verify", "--check", "kummer", "--p", "7", "--k", "2", "--k2", "9"], "--k2"),
]


@pytest.mark.parametrize(
    "argv, named", BAD_ARGV, ids=[" ".join(argv) or "empty" for argv, _ in BAD_ARGV]
)
def test_bad_argv_exits_2_naming_the_offender(capsys, argv, named):
    for parse in (build_parser().parse_args, main):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: eulerlp")
        error = err.splitlines()[-1]
        assert ": error: " in error and named in error, err
    assert err.count("\n") == 2
    assert error.startswith("eulerlp: error: ")


def test_x_exponent_past_the_digit_bound_exits_2_at_once(capsys):
    # typed digits past Python's 4,300-digit int-from-text bound are refused;
    # an exponent is held to the same bound, or 1e-1000000 would build and
    # print million-digit sides.  The argparse oracle accepts these, so
    # their argv are not literals that the parity corpus would collect.
    verify = ["verify", "--check", "distribution", "--n", "2", "--f", "3", "--x"]
    for x in ("1e-1000000", "1E4301"):
        with pytest.raises(SystemExit) as exc:
            main([*verify, x])
        assert exc.value.code == 2
        assert "--x" in capsys.readouterr().err.splitlines()[-1]
    for x, printed in (("1e400", "1" + "0" * 400 + "/1"), ("1e-4300", "1/1" + "0" * 4300)):
        code, out, _ = run_cli(capsys, *verify, x)
        assert code == 0
        assert json.loads(out)["params"]["x"] == printed


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_lists_every_command_option_and_check(capsys, command, flag):
    argv = [flag] if command is None else [command, flag]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith("usage: eulerlp")
    subparsers = build_parser()._subparsers._group_actions[0].choices
    if command is None:
        assert all(name in out for name in subparsers)
        return
    for action in subparsers[command]._actions:
        assert all(option in out for option in action.option_strings), action
        assert all(choice in out for choice in action.choices or ()), action
    if command == "verify":
        assert all(check in out for check in CHECKS)


def test_help_exits_0_from_the_module():
    proc = run_python("-m", "eulerlp", "grid", "--help")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "--primes" in proc.stdout

import argparse
import ast
import hashlib
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

from eulerlp import cli
from eulerlp.cli import COMMANDS, main
from eulerlp.harness import CHECKS

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _tangent_numbers(count):
    """T[k] = tangent number T_{2k-1} for k = 1..count (T[0] unused), by
    Brent and Harvey's integer recurrence (2011)."""
    t = [0] * (count + 1)
    if count:
        t[1] = 1
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def _expected_euler_line(n, tangent):
    """E_0 = 1, E_n = 0 at even n > 0, E_n = (-1)^k T_n / 2^n at odd n = 2k - 1."""
    if n == 0:
        value = Fraction(1)
    elif n % 2 == 0:
        value = Fraction(0)
    else:
        k = (n + 1) // 2
        value = Fraction((-1) ** k * tangent[k], 2**n)
    return json.dumps(
        {"n": n, "value": f"{value.numerator}/{value.denominator}"}, separators=(",", ":")
    )


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
        monkeypatch.setattr(cli, "euler_numbers", lambda nmax: [Fraction(numerator, 2)])
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
        # n = 1843 on; every line must equal the tangent-number oracle.
        nmax = 1900
        code, out, _ = run_cli(capsys, "euler", "--nmax", str(nmax))
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == nmax + 1
        tangent = _tangent_numbers((nmax + 1) // 2)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            for n, line in enumerate(lines):
                assert line == _expected_euler_line(n, tangent), n
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
        code, out, _ = run_cli(
            capsys, "verify", "--check", "kummer", "--p", "7", "--k", "2"
        )
        assert code == 0
        record = json.loads(out)
        assert record["match"] is True
        assert record["params"]["k2"] == 9

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

    def test_invalid_grid_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "grid", "--primes", "3", "--r", "1", "--n", "3", "--precision", "2"
        )
        assert code == 2
        assert "even" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--r", "4..1"), ("--primes", ","), ("--n", ""), ("--primes", "3,x"), ("--r", "1..x")],
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


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_verify_lines_appear_in_grid_output(capsys, check):
    code, grid_out, _ = run_cli(capsys, *GRID_ARGV)
    assert code == 0
    code, verify_out, _ = run_cli(capsys, "verify", "--check", check, *VERIFY_ARGV[check])
    assert code == 0
    grid_lines = grid_out.splitlines()
    verify_lines = verify_out.splitlines()
    assert verify_lines
    for line in verify_lines:
        assert line in grid_lines


def test_grid_mixed_stdout_digest(capsys):
    """The benchmark's grid-mixed argv still prints its recorded stream."""
    workloads = json.loads(WORKLOADS.read_text())
    spec = workloads["grid-mixed"]
    code, out, _ = run_cli(capsys, *spec["default_argv"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == spec["stdout_sha256"]


def test_grid_mixed_csv_stdout_digest(capsys):
    """The grid-mixed argv with --format csv prints its recorded stream."""
    spec = json.loads(WORKLOADS.read_text())["grid-mixed"]
    code, out, _ = run_cli(capsys, *spec["default_argv"], "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cef199519708b218590dc20c63e3ec66f8ec3a6a4ae2f59b5b455d640f012224"
    )


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


def test_lp_at_p7_stdout_digest(capsys):
    """An l_p value at p = 7, a prime no other lp test uses, prints its
    recorded line."""
    code, out, _ = run_cli(
        capsys, "lp", "--p", "7", "--s", "-3", "--t", "5", "--precision", "8"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "95ac74eac527d163a9e711341d55af1804b3d3a70605b4f54c5e997d4b3d4f81"
    )


def test_import_builds_no_euler_table():
    # A CLI call pays for the Euler table it uses; importing the CLI must not
    # build any of it (the benchmark refuses a warm cache after the import).
    probe = (
        "import eulerlp.cli\n"
        "from eulerlp import euler\n"
        "print(euler.euler_number.cache_info().currsize, euler._tangent)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "[0]"]



def _run_module(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "eulerlp", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_module_entry_point_matches_main(capsys):
    argv = [
        "verify", "--check", "theorem6",
        "--p", "3", "--n", "2", "--r", "1", "--precision", "3",
    ]
    proc = _run_module(*argv)
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert proc.stdout == out


def test_module_entry_point_usage_error():
    proc = _run_module("verify", "--check", "kummer", "--p", "7", "--k", "2", "--t", "1")
    assert proc.returncode == 2
    assert "error: the congruence needs t = 0 mod p-1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_prints_sides_past_the_digit_limit():
    # E_1569(1/3) and the distribution sum are the smallest --f 3 --x 1/3
    # sides whose numerators pass Python's default int-to-str limit of 4300
    # digits; the comparison holds and must print, not give a usage error
    proc = _run_module(
        "verify", "--check", "distribution", "--n", "1569", "--f", "3", "--x", "1/3"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    report = json.loads(proc.stdout)
    assert report["match"] is True
    assert '"match":true' in proc.stdout
    assert max(len(part) for part in report["lhs"].lstrip("-").split("/")) > 4300


def test_closed_stdout_exits_141_without_a_traceback():
    # the reader of `eulerlp euler --nmax 3000 | head -1` goes away after
    # one line, while megabytes are still to be written
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with subprocess.Popen(
        [sys.executable, "-m", "eulerlp", "euler", "--nmax", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline() == b'{"n":0,"value":"1/1"}\n'
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141
    assert "Traceback" not in stderr
    assert stderr == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_write_error_on_stdout_is_a_one_line_error():
    # every write to /dev/full fails with ENOSPC; the output is lost, which
    # is neither a mismatch (exit 1) nor a closed pipe (exit 141)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "eulerlp", "euler", "--nmax", "5"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: cannot write output: ")


def test_stdout_closed_at_start_is_not_an_error(capsys, monkeypatch):
    # a process started with stdout closed (`eulerlp ... >&-`) has
    # sys.stdout None, and print writes nothing
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["euler", "--nmax", "3"]) == 0


def test_import_loads_no_argparse_gettext_locale_dataclasses_inspect_or_csv():
    # -S: no .pth file of the site packages can load a module first and
    # hide its import by eulerlp
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import eulerlp.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
        "eulerlp.cli.reports_to_csv([])\n"
        "print('csv' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    imported, csv_after = proc.stdout.splitlines()
    assert "eulerlp.cli" in imported.split()
    assert not {
        "argparse", "gettext", "locale", "dataclasses", "inspect", "ast", "dis", "tokenize",
        "csv",
    } & set(imported.split())
    assert csv_after == "True"


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
    p_verify.add_argument("--k2", type=int)
    p_verify.add_argument("--t", type=int, default=0)
    p_verify.add_argument("--f", type=int)
    p_verify.add_argument("--m", type=int)
    p_verify.add_argument("--j", type=int)
    p_verify.add_argument("--x", type=_rational, default="0/1", help='rational point "num/den"')
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
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    for line in text.splitlines():
        if line.strip().startswith(("#", "- name")):
            continue
        for match in re.finditer(r"(?<![\w/.-])eulerlp (.*)", line):
            # the argv ends at a redirection, a pipe or a command substitution
            yield re.split(r"\s+\d*>|\s*[|)]", match.group(1))[0].split()


def _argv_in_this_file():
    """Every all-literal argv this module passes to main, run_cli or
    _run_module."""
    for node in ast.walk(ast.parse(Path(__file__).read_text())):
        name = getattr(getattr(node, "func", None), "id", None)
        if name not in ("main", "run_cli", "_run_module"):
            continue
        args = node.args[1:] if name == "run_cli" else node.args
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
    ["verify", "--check", "kummer", "--p", "7", "--k", "2", "--k2", "9"],
    ["verify", "--che=kummer", "--k2=9", "--k=2", "--p=-7"],
    ["verify", "--check", "distribution", "--n", "3", "--f", "5", "--x=-2/7", "--x", "3"],
]

PARITY_CORPUS = {
    "readme": list(_readme_argv()),
    "workloads": list(_workload_argv()),
    "ci": list(_ci_argv()),
    "test_cli": list(_argv_in_this_file())
    + [GRID_ARGV]
    + [["verify", "--check", c, *argv] for c, argv in VERIFY_ARGV.items()],
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
    proc = _run_module("grid", "--help")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "--primes" in proc.stdout

"""Every report grid prints against a reference that shares no code with
the library.

The reference rebuilds the reports of a grid config from the config alone,
in grid's order, and each test compares them field by field with the lines
the CLI printed: check, params, both sides, precision, match flag and
valuation.  The alternating harmonic and power sums are Fraction sums
written here; every other value comes from oracles.py: E_n and E_n(x) from
the Fraction recurrence, the closed-form Teichmuller lift, the l_p series
for theorem6's series side and interpolation's left side, and Kim's
fermionic sum at level 1 for both sides of kummer.

The CLI runs as ``python -m eulerlp`` in a child process, and neither this
module nor oracles.py imports anything from eulerlp.  Only the two mutant
tests reach the library, through conftest, the one module that patches it.
"""

import ast
import csv
import io
import json
import sys
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from conftest import (  # noqa: E402
    GRID_MIXED,
    ROOT,
    cli,
    harness,
    lfunctions,
    mutated,
    run_python,
    source_mutant,
)
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracles import (  # noqa: E402
    binomial,
    euler_number,
    euler_polynomial,
    fermionic_l,
    interpolation_rhs,
    l_p,
    main_congruence_series,
    padic_report,
    rational_report,
    residue,
)
from test_recorded_outputs import RECORDED  # noqa: E402

# The fixed rows of the exact suites: distribution's points x = u/v and
# odd moduli f, and powersum's exponents m.
DISTRIBUTION_POINTS = ((0, 1), (1, 2), (1, 3), (-2, 7), (5, 4))
DISTRIBUTION_MODULI = (1, 3, 5, 7)
POWER_SUM_EXPONENTS = range(9)


def _theorem6(p, r, n, M):
    terms = (Fraction((-1) ** j, j**r) for j in range(1, n * p + 1) if j % p)
    lhs = residue(2 * sum(terms, Fraction(0)), p**M)
    rhs = main_congruence_series(p, M, n, r)
    return padic_report("theorem6", {"p": p, "n": n, "r": r, "M": M}, p, M, lhs, rhs)


def _interpolation(p, n, t, M):
    params = {"p": p, "n": n, "t": t, "M": M}
    return padic_report("interpolation", params, p, M, l_p(p, M, -n, t),
                        interpolation_rhs(p, M, n, t))


def _kummer(p, k):
    params = {"p": p, "k": k, "k2": k + p, "t": 0, "M": 1}
    return padic_report("kummer", params, p, 1, fermionic_l(p, k), fermionic_l(p, k + p))


def _distribution(n, f, u, v):
    x = Fraction(u, v)
    rhs = f**n * sum((-1) ** a * euler_polynomial(n, (x + a) / f) for a in range(f))
    return rational_report("distribution", {"n": n, "f": f, "x": f"{u}/{v}"},
                           euler_polynomial(n, x), rhs)


def _power_sum(n, m):
    lhs = 2 * sum((-1) ** l * l**m for l in range(n))
    rhs = euler_number(m) - euler_polynomial(m, Fraction(n))
    return rational_report("powersum", {"n": n, "m": m}, lhs, rhs)


def _binomials(r, k, js):
    ratio = rational_report("binomial", {"r": r, "k": k, "identity": "ratio"},
                            Fraction(r * binomial(-r - 1, k), r + k), binomial(-r, k))
    return [ratio] + [
        rational_report("binomial", {"r": r, "k": k, "j": j, "identity": "product"},
                        binomial(-r, k) * binomial(-r - k, j),
                        binomial(-r, k + j) * binomial(k + j, j))
        for j in js
    ]


def reference_reports(primes, rs, ns, M):
    """The reports of ``eulerlp grid`` at these axes, each sorted and
    deduplicated as grid reads it, in grid's order, as parsed JSON."""
    primes, rs, ns = (sorted(set(axis)) for axis in (primes, rs, ns))
    reports = [_theorem6(p, r, n, M) for p in primes for r in rs for n in ns]
    reports += [_interpolation(p, n, t, M) for p in primes for n in ns for t in range(p - 1)]
    reports += [_kummer(p, k) for p in primes for k in rs]
    reports += [_distribution(n, f, u, v) for n in ns for f in DISTRIBUTION_MODULI
                for u, v in DISTRIBUTION_POINTS]
    reports += [_power_sum(n, m) for n in ns for m in POWER_SUM_EXPONENTS]
    return reports + [report for r in rs for k in rs for report in _binomials(r, k, rs)]


def _axis(text):
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def _grid_argv(primes, rs, ns, M):
    return ["grid", "--primes", ",".join(map(str, primes)), "--r", ",".join(map(str, rs)),
            "--n", ",".join(map(str, ns)), "--precision", str(M)]


def _csv_cell(text):
    """A CSV cell as its JSON line holds it: None for an empty cell, the
    JSON value of a number, flag or dict, and a "num/den" side as text."""
    if text == "":
        return None
    try:
        return json.loads(text)
    except ValueError:
        return text


def parse_output(text):
    """The printed reports, JSON lines or CSV with a header, as dicts."""
    if text.startswith("check,"):
        return [{key: _csv_cell(cell) for key, cell in row.items()}
                for row in csv.DictReader(io.StringIO(text))]
    return [json.loads(line) for line in text.splitlines()]


def run_module(argv):
    proc = run_python("-m", "eulerlp", *argv)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return parse_output(proc.stdout)


def differing(printed, expected):
    """{check: count of printed reports that differ from the reference}."""
    assert len(printed) == len(expected)
    counts = {}
    for got, want in zip(printed, expected):
        if got != want:
            counts[want["check"]] = counts.get(want["check"], 0) + 1
    return counts


GRID_ARGVS = [argv for argv in RECORDED if argv.startswith("grid ")]


@pytest.mark.parametrize("argv", GRID_ARGVS)
def test_every_recorded_grid_report_is_the_reference(argv):
    words = argv.split()
    options = dict(zip(words[1::2], words[2::2]))
    axes = [_axis(options[f"--{name}"]) for name in ("primes", "r", "n")]
    expected = reference_reports(*axes, int(options["--precision"]))
    assert differing(run_module(words), expected) == {}


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(
    primes=st.lists(st.sampled_from((3, 5, 7, 11, 13)), min_size=1, max_size=3),
    rs=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    ns=st.lists(st.sampled_from((2, 4, 6, 8)), min_size=1, max_size=3),
    M=st.integers(1, 6),
)
def test_small_grids_are_the_reference(primes, rs, ns, M):
    printed = run_module(_grid_argv(primes, rs, ns, M))
    assert differing(printed, reference_reports(primes, rs, ns, M)) == {}


def _grid_mixed_under(capsys, target, name, mutant):
    config = (GRID_MIXED.primes, GRID_MIXED.r_values, GRID_MIXED.n_values, GRID_MIXED.precision)
    capsys.readouterr()
    with mutated(target, name, mutant):
        cli.main(_grid_argv(*config))
    return differing(parse_output(capsys.readouterr().out), reference_reports(*config))


def test_distribution_scale_mutant_differs_from_the_reference(capsys):
    # both sides over (3v)^n instead of (2v)^n: every report still matches,
    # and every side but those of the 12 reports at x = 0, where E_n(0) = 0
    # at even n, is wrong
    mutant = source_mutant(harness.distribution_report, "(2 * v) ** n", "(3 * v) ** n")
    assert _grid_mixed_under(capsys, harness, "distribution_report", mutant) == {
        "distribution": 48}


def test_kummer_argument_mutant_differs_from_the_reference(capsys):
    # k2 = k - p still gives a pair that agrees mod p, so every report
    # matches; its params name the wrong argument
    mutant = source_mutant(lfunctions.kummer_check, "k2 = k + p", "k2 = k - p")
    assert _grid_mixed_under(capsys, harness, "kummer_check", mutant) == {"kummer": 20}


@pytest.mark.parametrize("name", ["test_reference_sides.py", "oracles.py", "test_oracles.py"])
def test_this_module_imports_nothing_from_eulerlp(name):
    # oracles.py, the reference the other test modules read too, imports
    # only the standard library
    tree = ast.parse((ROOT / "tests" / name).read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    tops = {name.split(".")[0] for name in names}
    assert "eulerlp" not in tops
    if name == "oracles.py":
        assert tops <= sys.stdlib_module_names, tops - sys.stdlib_module_names

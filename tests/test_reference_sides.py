"""Every report grid prints against a reference that shares no code with
the library.

The reference rebuilds the reports of a grid config from the config alone,
in grid's order, and each test compares them field by field with the lines
the CLI printed: check, params, both sides, precision, match flag and
valuation.  Its values come from

- Fractions, for the alternating harmonic and power sums;
- sympy's ``euler``, with E_n = E_n(0), and ``binomial``;
- the closed-form Teichmuller lift w(a) = a^(p^(M-1)) mod p^M, with
  <a> = a / w(a);
- the series l_p(s, w^t) = sum_{0<a<p} w(a)^t (-1)^a <a>^(-s)
  sum_{j<M} C(-s, j) (p/a)^j E_j, exact mod p^M from M terms, for
  theorem6's series side and interpolation's left side;
- Kim's fermionic sum at level 1, sum_{0<x<p} (-1)^x <x>^(-s) mod p, for
  both sides of kummer (T. Kim, "q-Volkenborn integration", Russ. J. Math.
  Phys. 9 (2002) 288-299).

The CLI runs as ``python -m eulerlp`` in a child process, and this module
imports nothing from eulerlp.  Only the two mutant tests reach the
library, through conftest, the one module that patches it.
"""

import ast
import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from conftest import GRID_MIXED, cli, harness, lfunctions, mutated, source_mutant  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_recorded_outputs import RECORDED  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# The fixed rows of the exact suites: distribution's points x = u/v and
# odd moduli f, and powersum's exponents m.
DISTRIBUTION_POINTS = ((0, 1), (1, 2), (1, 3), (-2, 7), (5, 4))
DISTRIBUTION_MODULI = (1, 3, 5, 7)
POWER_SUM_EXPONENTS = range(9)


@lru_cache(maxsize=None)
def _binomial(z, j):
    return int(sympy.binomial(z, j))


@lru_cache(maxsize=None)
def _euler_coefficients(n):
    """sympy's E_n(x), highest power first, as Fractions."""
    x = sympy.Symbol("x")
    return [Fraction(int(c.p), int(c.q)) for c in sympy.Poly(sympy.euler(n, x), x).all_coeffs()]


def _euler(n, x):
    """E_n(x) at a Fraction x."""
    value = Fraction(0)
    for c in _euler_coefficients(n):
        value = value * x + c
    return value


def _residue(q, m):
    """A Fraction with denominator prime to p, mod m = p^M."""
    q = Fraction(q)
    return q.numerator * pow(q.denominator, -1, m) % m


def _padic_side(p, M, residue):
    digits = [residue // p**i % p for i in range(M)]
    valuation = next((i for i, d in enumerate(digits) if d), M)
    return {"p": p, "precision": M, "digits": digits, "valuation": valuation}


def _padic_report(check, params, p, M, lhs, rhs):
    left, right = _padic_side(p, M, lhs % p**M), _padic_side(p, M, rhs % p**M)
    return {"check": check, "p": p, "params": params, "lhs": left, "rhs": right,
            "precision": M, "match": left == right, "lhs_valuation": left["valuation"]}


def _rational_report(check, params, lhs, rhs):
    left, right = (f"{q.numerator}/{q.denominator}" for q in (Fraction(lhs), Fraction(rhs)))
    return {"check": check, "p": None, "params": params, "lhs": left, "rhs": right,
            "precision": None, "match": left == right, "lhs_valuation": None}


@lru_cache(maxsize=None)
def _lifts(p, M):
    """w(a) = a^(p^(M-1)) mod p^M at a = 0, ..., p - 1."""
    return [pow(a, p ** (M - 1), p**M) for a in range(p)]


@lru_cache(maxsize=None)
def _euler_residues(p, M):
    """E_j mod p^M for j < M."""
    return [_residue(_euler(j, Fraction(0)), p**M) for j in range(M)]


@lru_cache(maxsize=None)
def _partial_zeta_row(p, M, s):
    """(-1)^a <a>^(-s) sum_{j<M} C(-s, j) (p/a)^j E_j mod p^M for 0 < a < p."""
    m, euler = p**M, _euler_residues(p, M)
    row = []
    for a in range(1, p):
        angle, ratio = a * pow(_lifts(p, M)[a], -1, m), p * pow(a, -1, m)
        series = sum(_binomial(-s, j) * pow(ratio, j, m) * e for j, e in enumerate(euler))
        row.append((-1) ** a * pow(angle, -s, m) * series % m)
    return row


@lru_cache(maxsize=None)
def l_p(p, M, s, t):
    """l_p(s, w^t) mod p^M from the series."""
    m, lifts = p**M, _lifts(p, M)
    return sum(pow(lifts[a], t, m) * h for a, h in enumerate(_partial_zeta_row(p, M, s), 1)) % m


def fermionic_l(p, s):
    """Kim's fermionic sum for l_p(s, w^0) at level 1, mod p."""
    lifts = _lifts(p, 1)
    return sum((-1) ** x * pow(x * pow(lifts[x], -1, p), -s, p) for x in range(1, p)) % p


def _theorem6(p, r, n, M):
    terms = (Fraction((-1) ** j, j**r) for j in range(1, n * p + 1) if j % p)
    lhs = _residue(2 * sum(terms, Fraction(0)), p**M)
    rhs = -sum(_binomial(-r, k) * (p * n) ** k * l_p(p, M, r + k, -k - r) for k in range(1, M))
    return _padic_report("theorem6", {"p": p, "n": n, "r": r, "M": M}, p, M, lhs, rhs)


@lru_cache(maxsize=None)
def _euler_class_values(n, p, M):
    """(-1)^a p^n E_n(a/p) mod p^M for 0 < a < p."""
    m = p**M
    return [_residue((-1) ** a * p**n * _euler(n, Fraction(a, p)), m) for a in range(1, p)]


def _interpolation(p, n, t, M):
    u = (t - n) % (p - 1)
    if u == 0:
        rhs = _residue((1 - p**n) * _euler(n, Fraction(0)), p**M)
    else:
        values = _euler_class_values(n, p, M)
        rhs = sum(pow(_lifts(p, M)[a], u, p**M) * v for a, v in enumerate(values, 1))
    params = {"p": p, "n": n, "t": t, "M": M}
    return _padic_report("interpolation", params, p, M, l_p(p, M, -n, t), rhs)


def _kummer(p, k):
    params = {"p": p, "k": k, "k2": k + p, "t": 0, "M": 1}
    return _padic_report("kummer", params, p, 1, fermionic_l(p, k), fermionic_l(p, k + p))


def _distribution(n, f, u, v):
    x = Fraction(u, v)
    rhs = f**n * sum((-1) ** a * _euler(n, (x + a) / f) for a in range(f))
    return _rational_report("distribution", {"n": n, "f": f, "x": f"{u}/{v}"}, _euler(n, x), rhs)


def _power_sum(n, m):
    lhs = 2 * sum((-1) ** l * l**m for l in range(n))
    rhs = _euler(m, Fraction(0)) - _euler(m, Fraction(n))
    return _rational_report("powersum", {"n": n, "m": m}, lhs, rhs)


def _binomials(r, k, js):
    ratio = _rational_report("binomial", {"r": r, "k": k, "identity": "ratio"},
                             Fraction(r * _binomial(-r - 1, k), r + k), _binomial(-r, k))
    return [ratio] + [
        _rational_report("binomial", {"r": r, "k": k, "j": j, "identity": "product"},
                         _binomial(-r, k) * _binomial(-r - k, j),
                         _binomial(-r, k + j) * _binomial(k + j, j))
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "eulerlp", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
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


def test_this_module_imports_nothing_from_eulerlp():
    tree = ast.parse(Path(__file__).read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not {name for name in names if name.split(".")[0] == "eulerlp"}

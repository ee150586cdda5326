"""Hand-written faults in the library, one row each in ``FAULTS``, with
their exact verdicts on grid-mixed, the benchmark's grid argv.

A row holds a builder of (target, name, mutant) for conftest's ``mutated``,
the mutant made by conftest's ``source_mutant`` or by wrapping the original,
and two verdicts, each {suite: count} over grid-mixed's printed reports:
``mismatched`` counts those printed with "match":false, and ``differs``
those that differ in any field from ``oracles.grid_reference``, which
shares no code with the library; None stands for the mismatched reports
and no others.  Every reference report matches, so a mismatched report
always differs.  A row with two empty verdicts is a survivor: grid-mixed's
output under it is byte-identical.

Each mutant is built inside its own test case, so a fault text that no
longer occurs in ``src/`` fails only its own row.
"""

from collections import Counter
from typing import Callable, NamedTuple

import pytest
from conftest import (
    GRID_MIXED_ARGV,
    mutated,
    short_l_series_fault,
    short_main_congruence_fault,
    source_mutant,
)
from oracles import differing, grid_reference, parse_output

from eulerlp import characters, cli, euler, harness, lfunctions


class Fault(NamedTuple):
    build: Callable[[], tuple]
    mismatched: dict
    differs: dict | None = None


def wrapped(target, name, wrap):
    """A builder of the fault ``target.name = wrap(target.name)``."""
    return lambda: (target, name, wrap(getattr(target, name)))


def rewritten(target, name, fault, mutation):
    """A builder of ``target.name`` recompiled with ``fault`` replaced by
    ``mutation`` in its source."""
    return lambda: (target, name, source_mutant(getattr(target, name), fault, mutation))


def _harmonic_without_last_term(original):
    # each n's sum read off without the term of its last unit j = np - 1,
    # a p-adic unit
    def mutant(p, ns, r, m):
        sums = zip(ns, original(p, ns, r, m))
        return [(s - 2 * (-1) ** (n * p - 1) * pow(n * p - 1, -r, m)) % m for n, s in sums]

    return mutant


def _euler_number_plus_one(j):
    """A wrap of an ``_euler_parts`` that gives E_j + 1 as (num + den, den)."""

    def wrap(original):
        def mutant(n):
            num, den = original(n)
            return (num + den, den) if n == j else (num, den)

        return mutant

    return wrap


FAULTS = {
    # C(z, j) with z >= 0 occurs only on the right of the product identity,
    # C(-r, k+j) C(k+j, j); every r in the grid is >= 1
    "binomial-plus-one-where-z-nonnegative": Fault(wrapped(
        harness, "binomial", lambda original: lambda z, j: original(z, j) + (z >= 0)),
        {"binomial": 64}),
    "harmonic-pass-missing-its-last-term": Fault(wrapped(
        harness, "_alt_harmonic_residues", _harmonic_without_last_term), {"theorem6": 60}),
    # the running total reset after each n: the first n of a row sums the
    # same span as before, so the 40 are the 20 rows' reports at n = 4 and 6
    "harmonic-pass-restarting-at-each-n": Fault(rewritten(
        harness, "_alt_harmonic_residues", "start = n * p + 1", "start, total = n * p + 1, 0"),
        {"theorem6": 40}),
    # the series side read at n with c_k n^(k+1) for c_k n^k
    "series-row-one-power-of-n-off": Fault(rewritten(
        harness, "_series_residues", "n**k", "n**(k + 1)"), {"theorem6": 60}),
    "short-main-congruence": Fault(short_main_congruence_fault, {"theorem6": 37}),
    # chi twisted by w^n instead of w^(-n): the right side reads E_{n,
    # w^(t+n)}, which differs where 2n is not 0 mod p-1 (p = 7, 11, 13)
    "interpolation-twist-by-plus-n": Fault(rewritten(
        harness, "_interpolation_report", "(t - n) %", "(t + n) %"), {"interpolation": 33}),
    # the right side's kernel called at denominator v instead of f*v, or
    # without (-1)^a: f = 1 cannot see either, f = 3, 5, 7 must
    "distribution-kernel-at-v-for-f-v": Fault(rewritten(
        harness, "distribution_report", "f * v)", "v)"), {"distribution": 45}),
    "distribution-kernel-sign-dropped": Fault(rewritten(
        harness, "distribution_report", "(-1) ** a * _euler_form", "_euler_form"),
        {"distribution": 45}),
    # both sides over (3v)^n: every report still matches, and every side
    # but those of the 12 reports at x = 0, where E_n(0) = 0 at even n, is
    # wrong
    "distribution-scale-3v": Fault(rewritten(
        harness, "distribution_report", "(2 * v) ** n", "(3 * v) ** n"),
        {}, {"distribution": 48}),
    # k2 = k - p still gives a pair that agrees mod p, so every report
    # matches; its params name the wrong argument
    "kummer-k2-is-k-minus-p": Fault(rewritten(
        harness, "kummer_check", "k2 = k + p", "k2 = k - p"), {}, {"kummer": 20}),
    # The four faults in the Teichmuller table.  A wrong g or index gives
    # psi(a) = zeta'^(k(a)) with zeta' still a (p-1)-th root of unity, read
    # consistently by chi and by <a> = a / psi(a).  Interpolation's match
    # flag cannot see that: l_p(-n, psi^t) = 2 sum psi(a)^(t-n) z(n, a)
    # holds for every such psi, and theorem6 cannot either, since
    # psi(a)^(-s) <a>^(-s) = a^(-s).  Interpolation's printed sides are
    # values at psi^t, though, and differ from the reference at w^t.
    # kummer's match flag sees it: kummer reads <a> mod p, which is 1 only
    # for psi = omega.  A lift that is not a root of unity (one digit short)
    # breaks the exponent arithmetic mod p - 1, which interpolation's match
    # flag sees.
    "primitive-root-squared": Fault(wrapped(
        characters, "_primitive_root", lambda original: lambda p: original(p) ** 2 % p),
        {"kummer": 20}, {"interpolation": 69, "kummer": 20}),
    # 2 is the least primitive root mod 3, 5, 11 and 13, and has order 3 mod 7
    "primitive-root-2-at-7": Fault(wrapped(
        characters, "_primitive_root", lambda original: lambda p: 2),
        {"kummer": 4}, {"interpolation": 15, "kummer": 4}),
    "table-index-plus-one": Fault(rewritten(
        characters, "_teichmuller_table",
        "index[pow(g, i, p)] = i", "index[pow(g, i, p)] = i + 1"),
        {"kummer": 20}, {"interpolation": 87, "kummer": 20}),
    "lift-one-digit-short": Fault(rewritten(
        characters, "_teichmuller_table",
        "teichmuller(g, ctx).residue", "pow(g, p ** max(ctx.precision - 2, 0), m)"),
        {"interpolation": 90}, {"interpolation": 95}),
    # E_j + 1 in the int kernel every exact path reads
    "euler-layer-E1-plus-one": Fault(wrapped(euler, "_euler_parts", _euler_number_plus_one(1)),
        {"interpolation": 87, "distribution": 45, "powersum": 21},
        {"interpolation": 87, "distribution": 57, "powersum": 21}),
    "euler-layer-E3-plus-one": Fault(wrapped(euler, "_euler_parts", _euler_number_plus_one(3)),
        {"interpolation": 58, "distribution": 30, "powersum": 15},
        {"interpolation": 58, "distribution": 38, "powersum": 15}),
    # E_j + 1 where the series table and E_{n,chi} at conductor 1 read it
    "series-E0-plus-one": Fault(wrapped(
        lfunctions, "_euler_parts", _euler_number_plus_one(0)),
        {"theorem6": 60, "interpolation": 102}),
    "series-E1-plus-one": Fault(wrapped(
        lfunctions, "_euler_parts", _euler_number_plus_one(1)),
        {"theorem6": 60, "interpolation": 102}),
    "series-E3-plus-one": Fault(wrapped(
        lfunctions, "_euler_parts", _euler_number_plus_one(3)),
        {"theorem6": 60, "interpolation": 68}),
    # Survivors, which ROADMAP item 11's odd n (with item 1) catches: the
    # Euler factor's sign matters only in the conductor-1 reports,
    # t = n mod p-1, where E_n = 0 at every even n; and one series term
    # short changes each l-value by a term that (pn)^k, k >= 1, pushes past
    # p^N in theorem6, while interpolation's terms j > n vanish.
    "euler-factor-sign": Fault(rewritten(
        harness, "_interpolation_report", "(1 - p**n if", "(1 + p**n if"), {}),
    "short-l-series": Fault(short_l_series_fault, {}),
}


@pytest.fixture(scope="module")
def reference():
    return grid_reference(GRID_MIXED_ARGV)


@pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS)
def test_grid_mixed_gives_the_faults_verdicts(fault, reference, capsys):
    with mutated(*fault.build()):
        status = cli.main(GRID_MIXED_ARGV)
    printed = parse_output(capsys.readouterr().out)
    mismatched = Counter(report["check"] for report in printed if not report["match"])
    assert (dict(mismatched), status) == (fault.mismatched, 1 if fault.mismatched else 0)
    differs = fault.mismatched if fault.differs is None else fault.differs
    assert differing(printed, reference) == differs
    assert cli.main(GRID_MIXED_ARGV) == 0
    assert parse_output(capsys.readouterr().out) == reference

"""Acceptance suite: every criterion is exact (tolerance zero) and carries a
wall-clock budget.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
one PASS/FAIL line per criterion."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import oracles
from conftest import leading_digits, mutated, random_rationals

from eulerlp import (
    PadicContext,
    alt_harmonic_sum,
    alternating_power_sum,
    alternating_power_sum_closed,
    binomial,
    distribution_report,
    euler_number,
    euler_numbers,
    interpolation_check,
    kummer_check,
    padic_l,
    series_closed_check,
    teichmuller_power,
    verify_main_congruence,
)
from eulerlp import lfunctions

PRIMES = (3, 5, 7)


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_seconds else "FAIL"
    print(
        f"criterion {number} ({description}): {status} "
        f"[{elapsed:.2f}s, budget {budget_seconds:g}s]"
    )
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds:g}s budget: {elapsed:.2f}s"
    )


def test_criterion_1_euler_numbers():
    with criterion(1, "euler numbers", 1.0):
        assert euler_numbers(7) == [
            Fraction(1),
            Fraction(-1, 2),
            Fraction(0),
            Fraction(1, 4),
            Fraction(0),
            Fraction(-1, 2),
            Fraction(0),
            Fraction(17, 8),
        ]
        B = oracles.bernoulli_numbers(31)
        for n in range(31):
            assert euler_number(n) == 2 * (1 - 2 ** (n + 1)) * B[n + 1] / (n + 1)
        for k in range(1, 16):
            assert euler_number(2 * k) == 0


def test_criterion_2_power_sums():
    with criterion(2, "power sums", 1.0):
        for n in range(2, 21, 2):
            for m in range(13):
                assert alternating_power_sum_closed(n, m) == alternating_power_sum(n, m)


def test_criterion_3_distribution():
    with criterion(3, "distribution relation", 5.0):
        rng = random.Random(20260811)
        points = random_rationals(rng, 20, bound=50)
        for n in range(13):
            for f in (1, 3, 5, 7):
                for x in points:
                    assert distribution_report(n, f, x).match


def _series_closed_reports(M=6):
    reports = []
    for p in PRIMES:
        ctx = PadicContext(p, M)
        for n in range(1, 9):
            for a in range(1, p):
                reports.append(series_closed_check(n, a, ctx))
    return reports


def _interpolation_reports(M=6):
    reports = []
    for p in PRIMES:
        ctx = PadicContext(p, M)
        for n in range(1, 9):
            chi = teichmuller_power(n % (p - 1), ctx)
            reports.append(interpolation_check(n, chi))
    return reports


def _kummer_reports():
    reports = []
    for p in PRIMES:
        ctx = PadicContext(p, 6)
        for k in range(1, 9):
            reports.append(kummer_check(k, 0, ctx))
    return reports


def _main_congruence_reports(M=6):
    reports = []
    for p in PRIMES:
        for r in (1, 2, 3, 4):
            for n in (2, 4, 6):
                reports.append(verify_main_congruence(p, n, r, M))
    return reports


def test_criterion_4_series_vs_closed_form():
    with criterion(4, "series vs closed form", 5.0):
        reports = _series_closed_reports()
        assert len(reports) == 8 * (2 + 4 + 6)
        assert all(r.match for r in reports)


def test_criterion_5_interpolation():
    with criterion(5, "interpolation", 5.0):
        for report in _interpolation_reports():
            assert report.match, report.params
        # the congruent values are the embedded rationals (1 - p^n) E_n
        for p in PRIMES:
            ctx = PadicContext(p, 6)
            for n in range(1, 9):
                chi = teichmuller_power(n % (p - 1), ctx)
                lhs = padic_l(-n, chi)
                rhs = ctx.from_rational((1 - Fraction(p) ** n) * euler_number(n))
                assert lhs == rhs, (p, n)
        ctx3 = PadicContext(3, 6)
        spot = padic_l(-1, teichmuller_power(1, ctx3))
        assert spot == ctx3.from_int(1)


def test_criterion_6_kummer_suite():
    with criterion(6, "kummer congruences", 5.0):
        for report in _kummer_reports():
            assert report.match, report.params
        for p in PRIMES:
            chi = teichmuller_power(0, PadicContext(p, 1))
            for s in range(1, 9):
                assert padic_l(s, chi).is_zero, (p, s)


def test_criterion_7_main_congruence_grid():
    with criterion(7, "main congruence grid", 30.0):
        assert alt_harmonic_sum(3, 2, 1) == Fraction(-9, 20)
        anchor = verify_main_congruence(3, 2, 1, 3)
        assert anchor.match
        assert anchor.lhs["digits"] == [0, 0, 2]  # both sides are 18 mod 27
        assert anchor.rhs["digits"] == [0, 0, 2]
        reports = _main_congruence_reports()
        assert len(reports) == 36
        for report in reports:
            assert report.match, report.params


def test_criterion_8_binomial_identities():
    with criterion(8, "binomial identities", 1.0):
        for r in range(1, 11):
            for k in range(1, 11):
                assert Fraction(r, r + k) * binomial(-r - 1, k) == binomial(-r, k)
                for j in range(1, 11):
                    lhs = binomial(-r, k) * binomial(-r - k, j)
                    assert lhs == binomial(-r, k + j) * binomial(k + j, j)


def _truncation_mismatches(M=6, extra=4):
    """Per check, where its values at M + extra digits, and so from extra
    more series terms, reduced to M digits, differ from those at M digits:
    report positions for the builds, (p, s) for kummer."""
    wrong = {}
    builds = (_series_closed_reports, _interpolation_reports, _main_congruence_reports)
    for build in builds:
        tight = [leading_digits(r, M) for r in build(M)]
        wide = [leading_digits(r, M) for r in build(M + extra)]
        wrong[build.__name__] = [i for i, key in enumerate(tight) if key != wide[i]]
    # a kummer report prints its l-values mod p, so its build cannot vary;
    # compare the values it reads from its context's rows instead
    wrong["kummer"] = []
    for p in PRIMES:
        tight, wide = (teichmuller_power(0, PadicContext(p, d)) for d in (M, M + extra))
        for k in range(1, 9):
            for s in (k, k + p):
                if padic_l(s, wide).reduce(M).residue != padic_l(s, tight).residue:
                    wrong["kummer"].append((p, s))
    return wrong


def test_criterion_9_truncation_robustness():
    with criterion(9, "truncation robustness", 60.0):
        wrong = _truncation_mismatches()
        assert len(wrong) == 4 and not any(wrong.values()), wrong


def test_criterion_9_sees_a_short_l_series(short_l_series):
    # theorem6 cannot see an l-series one term short: each l-value is
    # multiplied by (pn)^k, k >= 1.  Nor can a kummer report, since
    # l_p(s, w^0) is 0 mod p from one term and from none; the values it
    # reads at M digits can
    wrong = _truncation_mismatches()
    assert wrong["_series_closed_reports"] and wrong["_interpolation_reports"], wrong
    assert wrong["kummer"], wrong


def test_criterion_9_sees_a_short_main_congruence(short_main_congruence):
    assert _truncation_mismatches()["_main_congruence_reports"]


DEEP_S = (-7, -2, 1, 4, 9)


def _deep_truncation_mismatches(M=200, extra=4):
    """Criterion 9 at the depth of a "digit by digit" request: l_p(s, w^t)
    for p = 3 and 5, s in DEEP_S and every t, and the p = 3 theorem6 report,
    each at M + extra digits reduced to M, against its value at M."""
    wrong = []
    for p in (3, 5):
        for t in range(p - 1):
            tight, wide = (teichmuller_power(t, PadicContext(p, d)) for d in (M, M + extra))
            for s in DEEP_S:
                if padic_l(s, wide).reduce(M).residue != padic_l(s, tight).residue:
                    wrong.append((p, t, s))
    tight, wide = (verify_main_congruence(3, 4, 2, d) for d in (M, M + extra))
    if leading_digits(wide, M) != leading_digits(tight, M) or not tight.match:
        wrong.append("theorem6")
    return wrong


def test_criterion_9_truncation_robustness_at_depth():
    with criterion(9, "truncation robustness at 200 digits", 30.0):
        assert _deep_truncation_mismatches() == []


def test_criterion_9_at_depth_sees_a_short_l_series(short_l_series):
    # the one term dropped has valuation at least M - 1, so only the last
    # digits of an l-value show it; theorem6 multiplies each by (pn)^k
    wrong = _deep_truncation_mismatches()
    assert wrong and "theorem6" not in wrong, wrong


def test_criterion_9_negative_control():
    # The values criterion 9 compares differ only by terms that vanish mod
    # p^M by construction; a series table one term short (J = M - 1) must
    # change the row, or the criterion could not fail.
    M = 6
    original = lfunctions._series_table

    def short(modulus, ctx):
        return tuple(e and (*e[:3], e[3][:-1]) for e in original(modulus, ctx))

    for p in PRIMES:
        ctx, wide, m = PadicContext(p, M), PadicContext(p, M + 4), p**M
        rows = {s: lfunctions._l_series_row(s, p, ctx) for s in range(-8, 9)}
        for s, row in rows.items():
            assert row == tuple(v % m for v in lfunctions._l_series_row(s, p, wide)), (p, s)
        with mutated(lfunctions, "_series_table", short):
            changed = {s for s, row in rows.items() if lfunctions._l_series_row(s, p, ctx) != row}
        assert changed, p

from fractions import Fraction

import pytest
from conftest import euler_numbers_by_recurrence

from eulerlp import (
    PadicContext,
    TruncationPlan,
    angle,
    binomial,
    euler_number,
    generalized_euler_number,
    interpolation_check,
    kummer_check,
    padic_l,
    padic_partial_zeta,
    padic_partial_zeta_at_neg,
    series_closed_check,
    teichmuller_power,
    verify_main_congruence,
)
from eulerlp import lfunctions


def reference_partial_zeta(s, a, modulus, ctx, plan):
    """H_p(s, a | modulus) term by term on PadicNumber arithmetic, at the
    context's full precision: the reference the residue kernel must match."""
    ratio = ctx.from_int(modulus) * ctx.from_int(a).inverse()
    power = ctx.from_int(1)
    series = ctx.from_int(0)
    for j in range(plan.series_cutoff):
        c = binomial(-s, j)
        if c:
            series = series + ctx.from_int(c) * power * ctx.from_rational(euler_number(j))
        power = power * ratio
    half = ctx.from_rational(Fraction(-1 if a % 2 else 1, 2))
    return (half * angle(a, ctx) ** (-s) * series).reduce(plan.target_precision)


def reference_l(s, chi, ctx, plan):
    total = ctx.from_int(0)
    for a in range(1, ctx.p):
        total = total + chi(a) * reference_partial_zeta(s, a, ctx.p, ctx, plan)
    return (2 * total).reduce(plan.target_precision)


class TestTruncationPlan:
    def test_default_cutoff_is_target(self):
        assert TruncationPlan(4).series_cutoff == 4

    def test_rejects_short_cutoff(self):
        with pytest.raises(ValueError):
            TruncationPlan(4, 3)
        with pytest.raises(ValueError):
            TruncationPlan(0)


class TestGeneralizedEulerNumbers:
    def test_trivial_character_recovers_euler_numbers(self):
        ctx = PadicContext(3, 6)
        chi = teichmuller_power(0, ctx)
        expected = euler_numbers_by_recurrence(8)
        for n in range(9):
            assert generalized_euler_number(n, chi) == ctx.from_rational(expected[n])

    def test_conductor_one_teichmuller_power_agrees(self):
        ctx = PadicContext(5, 4)
        chi = teichmuller_power(4, ctx)  # exponent reduces to 0
        expected = euler_numbers_by_recurrence(5)
        for n in range(6):
            assert generalized_euler_number(n, chi) == ctx.from_rational(expected[n])

    def test_w1_at_three(self):
        ctx = PadicContext(3, 6)
        chi = teichmuller_power(1, ctx)
        assert generalized_euler_number(0, chi) == ctx.from_int(-2)
        assert generalized_euler_number(1, chi).is_zero


class TestPartialZetaSeries:
    def test_s_zero_collapses_to_first_term(self):
        # C(0, j) = 0 for j >= 1, so only (-1)^a / 2 survives
        for p in (3, 5):
            ctx = PadicContext(p, 6)
            plan = TruncationPlan(6)
            for a in range(1, p):
                expected = ctx.from_rational(Fraction((-1) ** a, 2))
                assert padic_partial_zeta(0, a, p, ctx, plan) == expected.reduce(6)

    def test_negative_s_example(self):
        ctx = PadicContext(5, 2)
        value = padic_partial_zeta(-1, 1, 5, ctx, TruncationPlan(2))
        assert value.residue == 7  # 3/4 embedded in Z_5

    def test_positive_s_example(self):
        ctx = PadicContext(3, 2)
        assert padic_partial_zeta(1, 1, 3, ctx, TruncationPlan(2)).residue == 1
        assert padic_partial_zeta(1, 2, 3, ctx, TruncationPlan(2)).residue == 8

    def test_frozen_positive_s_values_mod_nine(self):
        ctx = PadicContext(3, 2)
        plan = TruncationPlan(2)
        assert padic_partial_zeta(2, 1, 3, ctx, plan).residue == 7
        assert padic_partial_zeta(2, 2, 3, ctx, plan).residue == 2

    def test_guards(self):
        ctx = PadicContext(3, 4)
        plan = TruncationPlan(3)
        with pytest.raises(ValueError):
            padic_partial_zeta(1, 1, 5, ctx, plan)  # p does not divide modulus
        with pytest.raises(ValueError):
            padic_partial_zeta(1, 1, 6, ctx, plan)  # even modulus
        with pytest.raises(ValueError):
            padic_partial_zeta(1, 3, 9, ctx, plan)  # a not a unit
        with pytest.raises(ValueError):
            padic_partial_zeta(1, 4, 3, ctx, plan)  # a out of range
        with pytest.raises(ValueError):
            padic_partial_zeta(1, 1, 3, ctx, TruncationPlan(9))  # beyond context


class TestKernelAgainstReference:
    @pytest.mark.parametrize(
        "p, modulus", [(3, 3), (5, 5), (7, 7), (11, 11), (13, 13), (3, 15), (5, 15)]
    )
    def test_partial_zeta_matches_padic_series(self, p, modulus):
        for digits in (1, 4, 10):
            for cutoff in (digits, digits + 3):
                plan = TruncationPlan(digits, cutoff)
                for precision in (digits, digits + 2):
                    ctx = PadicContext(p, precision)
                    for a in range(1, modulus):
                        if a % p == 0:
                            continue
                        for s in range(-4, 5):
                            value = padic_partial_zeta(s, a, modulus, ctx, plan)
                            expected = reference_partial_zeta(s, a, modulus, ctx, plan)
                            assert value == expected, (p, modulus, digits, cutoff, precision, a, s)
                            assert value.precision == digits

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_l_matches_padic_series(self, p):
        for digits in (1, 4, 10):
            ctx = PadicContext(p, digits + 2)
            plan = TruncationPlan(digits)
            for t in range(p - 1):
                chi = teichmuller_power(t, ctx)
                for s in range(-4, 5):
                    value = padic_l(s, chi, plan)
                    assert value == reference_l(s, chi, ctx, plan), (p, digits, t, s)
                    assert value.precision == digits

    def test_tables_depend_on_target_digits_not_context_precision(self):
        lfunctions._series_table.cache_clear()
        plan = TruncationPlan(4, 7)
        values = {
            padic_partial_zeta(3, 2, 5, PadicContext(5, precision), plan).residue
            for precision in (4, 6, 9)
        }
        assert lfunctions._series_table.cache_info().misses == 1
        assert len(values) == 1


class TestPartialZetaClosedForm:
    def test_examples(self):
        ctx = PadicContext(3, 6)
        quarter = ctx.from_rational(Fraction(1, 4))
        assert padic_partial_zeta_at_neg(1, 1, 3, ctx) == quarter
        assert padic_partial_zeta_at_neg(1, 2, 3, ctx) == -quarter
        assert padic_partial_zeta_at_neg(2, 1, 3, ctx) == ctx.from_int(1)

    def test_series_agrees_with_closed_form(self):
        for p in (3, 5, 7):
            ctx = PadicContext(p, 6)
            for n in range(1, 9):
                for a in range(1, p):
                    report = series_closed_check(n, a, ctx)
                    assert report.match, (p, n, a)

    def test_agreement_at_lower_precisions(self):
        for digits in (1, 2, 3, 4, 5):
            ctx = PadicContext(5, digits)
            for a in (1, 2, 3, 4):
                assert series_closed_check(3, a, ctx).match

    def test_composite_odd_multiple_of_p(self):
        # F = 3p exercises the general modulus path of the series
        ctx = PadicContext(5, 6)
        plan = TruncationPlan(6, 12)
        for n in (1, 2, 3):
            for a in (1, 2, 4, 7, 8, 11, 13, 14):
                series = padic_partial_zeta(-n, a, 15, ctx, plan)
                closed = padic_partial_zeta_at_neg(n, a, 15, ctx)
                assert series == closed.reduce(6)

    def test_wrong_sign_of_minus_one_to_the_a_is_reported(self, monkeypatch):
        # the closed form with (-1)^a dropped, i.e. the wrong sign for odd a
        original = lfunctions.partial_zeta_neg

        def matches():
            return [
                series_closed_check(n, a, ctx).match
                for ctx in (PadicContext(p, 10) for p in (3, 5, 7, 11, 13))
                for n in range(1, 9)
                for a in range(1, ctx.p)
            ]

        monkeypatch.setattr(
            lfunctions, "partial_zeta_neg", lambda n, a, F: (-1) ** a * original(n, a, F)
        )
        try:
            mutated = matches()
        finally:
            monkeypatch.undo()
        assert not all(mutated), mutated
        assert all(matches())


class TestPadicL:
    def test_value_at_minus_one(self):
        ctx = PadicContext(3, 6)
        value = padic_l(-1, teichmuller_power(1, ctx), TruncationPlan(6))
        assert value == ctx.from_int(1)  # equals (1 - 3) E_1 exactly

    def test_positive_argument_example(self):
        ctx = PadicContext(3, 2)
        value = padic_l(1, teichmuller_power(1, ctx), TruncationPlan(2))
        assert value.residue == 4

    def test_trivial_character_example(self):
        ctx = PadicContext(3, 2)
        value = padic_l(2, teichmuller_power(0, ctx), TruncationPlan(2))
        assert value.is_zero

    def test_values_lie_in_zp(self):
        for p in (3, 5, 7):
            ctx = PadicContext(p, 5)
            plan = TruncationPlan(5)
            for t in range(p - 1):
                chi = teichmuller_power(t, ctx)
                for s in range(-4, 5):
                    assert padic_l(s, chi, plan).valuation >= 0

    def test_truncation_soundness(self):
        # a larger cutoff never changes the reported residue
        for p in (3, 5):
            ctx = PadicContext(p, 5)
            chi = teichmuller_power(1, ctx)
            for s in (-4, -1, 1, 3, 6):
                tight = padic_l(s, chi, TruncationPlan(5))
                wide = padic_l(s, chi, TruncationPlan(5, 9))
                assert tight == wide


class TestInterpolation:
    def test_diagonal_twists_give_euler_numbers(self):
        # l_p(-n, w^t) = (1 - p^n) E_n whenever n = t mod p-1
        for p in (3, 5, 7):
            ctx = PadicContext(p, 6)
            plan = TruncationPlan(6)
            for n in range(1, 9):
                chi = teichmuller_power(n, ctx)
                lhs = padic_l(-n, chi, plan)
                rhs = ctx.from_rational((1 - Fraction(p) ** n) * euler_number(n))
                assert lhs == rhs.reduce(6)

    def test_report_examples(self):
        ctx3 = PadicContext(3, 6)
        report = interpolation_check(1, teichmuller_power(1, ctx3))
        assert report.match
        assert report.lhs["digits"][0] == 1 and report.lhs["valuation"] == 0

        report = interpolation_check(2, teichmuller_power(2, ctx3))
        assert report.match
        assert report.lhs["valuation"] == 6  # both sides vanish (E_2 = 0)

        ctx5 = PadicContext(5, 6)
        report = interpolation_check(1, teichmuller_power(1, ctx5))
        assert report.match
        assert report.lhs["digits"] == [2, 0, 0, 0, 0, 0]  # (1 - 5) E_1 = 2

    def test_all_twists_interpolate(self):
        for p in (3, 5):
            ctx = PadicContext(p, 5)
            for n in range(1, 7):
                for t in range(p - 1):
                    chi = teichmuller_power(t, ctx)
                    assert interpolation_check(n, chi).match, (p, n, t)

    def test_margin_does_not_change_reports(self):
        ctx = PadicContext(5, 5)
        chi = teichmuller_power(3, ctx)
        base = interpolation_check(4, chi)
        wide = interpolation_check(4, chi, margin=4)
        assert base == wide


class TestKummer:
    def test_step_p_congruence(self):
        for p in (3, 5, 7):
            ctx = PadicContext(p, 4)
            for k in range(1, 9):
                report = kummer_check(k, 0, ctx)
                assert report.match
                assert report.precision == 1

    def test_arbitrary_argument_pairs(self):
        ctx = PadicContext(3, 4)
        report = kummer_check(1, 0, ctx, k2=4)
        assert report.match
        assert report.params["k2"] == 4

    def test_values_vanish_mod_p_for_exponent_zero(self):
        for p in (3, 5, 7):
            ctx = PadicContext(p, 4)
            chi = teichmuller_power(0, ctx)
            for s in range(1, 9):
                value = padic_l(s, chi, TruncationPlan(1))
                assert value.is_zero

    def test_rejects_bad_exponent(self):
        ctx = PadicContext(5, 4)
        with pytest.raises(ValueError):
            kummer_check(1, 1, ctx)

    def test_nonzero_exponent_multiple_of_order_accepted(self):
        ctx = PadicContext(3, 4)
        assert kummer_check(2, 4, ctx).match


class TestStrongKummer:
    def test_period_congruence(self):
        # k = k' mod (p-1) p^(m-1) implies l_p(k, w^t) = l_p(k', w^t) mod p^m
        for p in (3, 5, 7, 11):
            ctx = PadicContext(p, 3)
            for t in range(p - 1):
                chi = teichmuller_power(t, ctx)
                for m in (1, 2, 3):
                    plan = TruncationPlan(m)
                    period = (p - 1) * p ** (m - 1)
                    for k in range(-3, 6):
                        lhs = padic_l(k, chi, plan)
                        assert lhs == padic_l(k + period, chi, plan), (p, t, m, k)

    def test_period_one_power_of_p_short_breaks(self):
        # negative control: mod p every value is independent of s (term j
        # carries p^j and <a> = 1 mod p), so only m >= 2 can fail
        for p in (3, 5, 7):
            ctx = PadicContext(p, 3)
            for m in (2, 3):
                plan = TruncationPlan(m)
                short = (p - 1) * p ** (m - 2)
                pairs = [
                    (padic_l(k, chi, plan), padic_l(k + short, chi, plan))
                    for chi in (teichmuller_power(t, ctx) for t in range(p - 1))
                    for k in range(1, 5)
                ]
                assert any(lhs != rhs for lhs, rhs in pairs), (p, m)


class TestEulerNumberMutants:
    """One E_j off by one inside the series must make the checks that use
    l_p report a mismatch; the kernel's tables are cleared on both sides of
    the mutation so that no cached table can hide it or carry it on."""

    P, DIGITS = 5, 6

    def _matches(self):
        ctx = PadicContext(self.P, self.DIGITS)
        interpolation = [
            interpolation_check(n, teichmuller_power(t, ctx)).match
            for n in (1, 2, 3)
            for t in range(self.P - 1)
        ]
        theorem6 = [
            verify_main_congruence(self.P, n, r, self.DIGITS).match
            for n in (2, 4)
            for r in (1, 2)
        ]
        return interpolation, theorem6

    @pytest.mark.parametrize("j", [0, 1, 3])
    def test_perturbed_euler_number_is_reported(self, monkeypatch, j):
        original = lfunctions.euler_number
        lfunctions._series_table.cache_clear()
        monkeypatch.setattr(lfunctions, "euler_number", lambda n: original(n) + (n == j))
        try:
            interpolation, theorem6 = self._matches()
        finally:
            monkeypatch.undo()
            lfunctions._series_table.cache_clear()
        assert not all(interpolation), interpolation
        assert not all(theorem6), theorem6
        interpolation, theorem6 = self._matches()
        assert all(interpolation) and all(theorem6)

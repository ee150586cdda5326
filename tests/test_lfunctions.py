from fractions import Fraction

import oracles
import pytest
from conftest import cold_caches, leading_digits, mutated, recorded, source_mutant

import eulerlp
from eulerlp import (
    PadicContext,
    generalized_euler_number,
    interpolation_check,
    kummer_check,
    padic_l,
    padic_partial_zeta,
    padic_partial_zeta_at_neg,
    series_closed_check,
    teichmuller_power,
)
from eulerlp import lfunctions, padic


class TestGeneralizedEulerNumbers:
    def test_trivial_character_recovers_euler_numbers(self):
        ctx = PadicContext(3, 6)
        chi = teichmuller_power(0, ctx)
        for n in range(9):
            value = generalized_euler_number(n, chi)
            assert value.residue == oracles.residue(oracles.euler_number(n), ctx.modulus)
            assert value.precision == ctx.precision

    def test_conductor_one_teichmuller_power_agrees(self):
        ctx = PadicContext(5, 4)
        chi = teichmuller_power(4, ctx)  # exponent reduces to 0
        for n in range(6):
            value = generalized_euler_number(n, chi)
            assert value.residue == oracles.residue(oracles.euler_number(n), ctx.modulus)
            assert value.precision == ctx.precision

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
            for a in range(1, p):
                expected = ctx.from_rational(Fraction((-1) ** a, 2))
                assert padic_partial_zeta(0, a, p, ctx) == expected

    def test_negative_s_example(self):
        ctx = PadicContext(5, 2)
        value = padic_partial_zeta(-1, 1, 5, ctx)
        assert value.residue == 7  # 3/4 embedded in Z_5

    def test_positive_s_example(self):
        ctx = PadicContext(3, 2)
        assert padic_partial_zeta(1, 1, 3, ctx).residue == 1
        assert padic_partial_zeta(1, 2, 3, ctx).residue == 8

    def test_frozen_positive_s_values_mod_nine(self):
        ctx = PadicContext(3, 2)
        assert padic_partial_zeta(2, 1, 3, ctx).residue == 7
        assert padic_partial_zeta(2, 2, 3, ctx).residue == 2

    def test_guards(self):
        ctx = PadicContext(3, 4)
        with pytest.raises(ValueError):
            padic_partial_zeta(1, 1, 5, ctx)  # p does not divide modulus
        with pytest.raises(ValueError):
            padic_partial_zeta(1, 1, 6, ctx)  # even modulus
        with pytest.raises(ValueError):
            padic_partial_zeta(1, 3, 9, ctx)  # a not a unit
        with pytest.raises(ValueError):
            padic_partial_zeta(1, 4, 3, ctx)  # a out of range


class TestKernelAgainstReference:
    @pytest.mark.parametrize(
        "p, modulus", [(3, 3), (5, 5), (7, 7), (11, 11), (13, 13), (3, 15), (5, 15)]
    )
    def test_partial_zeta_matches_padic_series(self, p, modulus):
        # the kernel sums N terms; the reference from N + 3 terms, whose
        # extra terms vanish mod p^N, must give the same value
        for digits in (1, 4, 10):
            ctx = PadicContext(p, digits)
            for a in range(1, modulus):
                if a % p == 0:
                    continue
                for s in range(-4, 5):
                    value = padic_partial_zeta(s, a, modulus, ctx)
                    for terms in (digits, digits + 3):
                        expected = oracles.partial_zeta_row(p, digits, s, modulus, terms)[a]
                        assert value.residue == expected, (p, modulus, digits, terms, a, s)
                    assert value.precision == digits

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_l_matches_padic_series(self, p):
        for digits in (1, 4, 10):
            ctx = PadicContext(p, digits)
            for t in range(p - 1):
                chi = teichmuller_power(t, ctx)
                for s in range(-4, 5):
                    value = padic_l(s, chi)
                    assert value.residue == oracles.l_p(p, digits, s, t), (p, digits, t, s)
                    assert value.precision == digits

    def test_more_context_digits_extend_the_value(self):
        # the value at N + 2 digits, reduced to N, is the value at N digits
        for p in (3, 5, 7):
            for digits in (1, 4):
                short, long = PadicContext(p, digits), PadicContext(p, digits + 2)
                for s in range(-4, 5):
                    for a in range(1, p):
                        value = padic_partial_zeta(s, a, p, long).reduce(digits).residue
                        assert value == padic_partial_zeta(s, a, p, short).residue
                    for t in range(p - 1):
                        value = padic_l(s, teichmuller_power(t, long)).reduce(digits).residue
                        assert value == padic_l(s, teichmuller_power(t, short)).residue


class TestSeriesRowUnits:
    """``_l_series_row`` raises <a> for s <= 0 and the table's <a>^(-1) for
    s > 0, so that no value takes a modular inverse.  At s = 0 both give
    <a>^0 = 1, so where the switch sits cannot be wrong; which unit each
    sign reads can, and at N = 1 every <a> is 1 mod p, so only N >= 2
    sees it.  Every row is checked at F = p, the row of l_p, and at
    F = 3p."""

    S = range(-4, 7)

    def _wrong_arguments(self):
        wrong = set()
        for p in (3, 5, 7, 11):
            for N in range(1, 5):
                ctx = PadicContext(p, N)
                for s in self.S:
                    for F in (p, 3 * p):
                        row = lfunctions._l_series_row(s, F, ctx)
                        if row != oracles.partial_zeta_row(p, N, s, F):
                            wrong.add(s)
        return wrong

    def _wrong_under(self, name, mutant):
        with mutated(lfunctions, name, mutant):
            return self._wrong_arguments()

    def test_rows_match_direct_sum(self):
        assert self._wrong_arguments() == set()

    def test_swapped_units_are_seen(self):
        original = lfunctions._series_table

        def swapped(modulus, ctx):
            return tuple(e and (e[0], e[2], e[1], e[3]) for e in original(modulus, ctx))

        wrong = self._wrong_under("_series_table", swapped)
        assert wrong == set(self.S) - {0}

    @pytest.mark.parametrize(
        "fault, mutation, signs",
        [
            ("pow(unit_inverse, s, m)", "pow(unit, s, m)", {1}),
            ("pow(unit, -s, m)", "pow(unit_inverse, -s, m)", {-1}),
        ],
        ids=["unit-for-positive-s", "inverse-for-negative-s"],
    )
    def test_wrong_unit_for_one_sign_is_seen(self, fault, mutation, signs):
        mutant = source_mutant(lfunctions._l_series_row, fault, mutation)
        wrong = self._wrong_under("_l_series_row", mutant)
        assert wrong == {s for s in self.S if (s > 0) - (s < 0) in signs}

    def test_partial_zeta_reads_one_row(self):
        # every class a < 3p at one (s, F, context) is an entry of one row
        ctx = PadicContext(5, 4)
        with cold_caches():
            for a in range(1, 15):
                if a % 5:
                    padic_partial_zeta(2, a, 15, ctx)
            assert lfunctions._l_series_row.cache_info().misses == 1


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

    @pytest.mark.parametrize(
        "n, a, modulus",
        [
            (0, 1, 5),  # n below 1
            (1, 0, 5),  # a below 1
            (1, 5, 5),  # a not below the modulus
            (1, 1, 4),  # modulus not a multiple of p
            (1, 1, 10),  # even multiple of p
            (1, 5, 15),  # a not a unit mod p
        ],
    )
    def test_closed_form_rejects_bad_class_or_modulus(self, n, a, modulus):
        with pytest.raises(ValueError):
            padic_partial_zeta_at_neg(n, a, modulus, PadicContext(5, 4))

    def test_series_closed_guards(self):
        ctx = PadicContext(5, 4)
        for n, a in ((0, 1), (1, 0), (1, -1), (1, 5), (1, 10)):
            with pytest.raises(ValueError):
                series_closed_check(n, a, ctx)

    def test_series_closed_compares_residues(self):
        # both sides are read as residues and omega^(-n)(a) by exponent: the
        # one PadicNumber is the lift behind the context's Teichmuller table
        ctx = PadicContext(7, 5)
        with recorded(eulerlp.PadicNumber, "__init__") as numbers:
            with recorded(eulerlp.DirichletCharacter, "__init__") as characters:
                reports = [series_closed_check(n, a, ctx)
                           for a in range(1, 7) for n in range(1, 7)]
        assert all(r.match for r in reports)
        assert len(numbers) == 1 and characters == []

    def test_one_teichmuller_lift_per_context(self):
        # the closed form reads omega^(-n)(a) from the context's table, like
        # the series' <a>: the only lift is the table's zeta = omega(g)
        ctx = PadicContext(7, 5)
        with recorded(padic, "teichmuller") as lifts:
            reports = [series_closed_check(n, a, ctx) for a in range(1, 7) for n in range(1, 7)]
        assert all(r.match for r in reports)
        assert len(lifts) == 1, lifts

    def test_composite_odd_multiple_of_p(self):
        # F = 3p exercises the general modulus path of the series
        ctx = PadicContext(5, 6)
        for n in (1, 2, 3):
            for a in (1, 2, 4, 7, 8, 11, 13, 14):
                series = padic_partial_zeta(-n, a, 15, ctx)
                closed = padic_partial_zeta_at_neg(n, a, 15, ctx)
                assert series == closed

    def test_wrong_sign_of_minus_one_to_the_a_is_reported(self):
        # the closed form with (-1)^a dropped, i.e. the wrong sign for odd a
        original = lfunctions._partial_zeta_residues

        def matches():
            return [
                series_closed_check(n, a, ctx).match
                for ctx in (PadicContext(p, 10) for p in (3, 5, 7, 11, 13))
                for n in range(1, 9)
                for a in range(1, ctx.p)
            ]

        def flipped(n, modulus, ctx):
            values = original(n, modulus, ctx)
            return tuple((-1) ** a * z % ctx.modulus for a, z in enumerate(values))

        with mutated(lfunctions, "_partial_zeta_residues", flipped):
            wrong = matches()
        assert not all(wrong), wrong
        assert all(matches())


class TestPartialZetaResidues:
    def test_integer_kernel_against_the_fraction_oracle(self):
        # (-1)^a H(n, a, F) / 2^(n+1) on ints against the oracle's Fraction
        # (-1)^a (F^n / 2) E_n(a/F), at F = p and at the composite F = 15 in
        # a 5-adic context, whose classes 5 and 10 are not units
        primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
        cases = [(PadicContext(p, N), p) for p in primes for N in (1, 5)]
        cases += [(PadicContext(5, N), 15) for N in (1, 5)]
        for ctx, F in cases:
            for n in range(13):
                expected = (0,) + tuple(
                    oracles.residue(oracles.partial_zeta_neg(n, a, F), ctx.modulus)
                    for a in range(1, F)
                )
                actual = lfunctions._partial_zeta_residues(n, F, ctx)
                assert actual == expected, (ctx, F, n)


# A value mod p^N sums N series terms; more digits sum more terms, and
# reduced to N digits must give the same value.  Each helper lists where it
# does not; the short_l_series mutant, one term short, must make it list
# some.  Only even t at even N can show a dropped last term: E_(N-1) = 0 at
# odd N, and at odd t the j = N - 1 terms of a and p - a cancel mod p^N.


def _truncation_mismatches():
    """(p, N, t, s) where l_p(s, w^t) at N + 4 digits, reduced to N digits,
    is not its value at N digits."""
    wrong = []
    for p in (3, 5):
        for digits in (5, 6):
            short, long = PadicContext(p, digits), PadicContext(p, digits + 4)
            for t in range(p - 1):
                for s in (-4, -1, 1, 3, 6):
                    value = padic_l(s, teichmuller_power(t, long)).reduce(digits)
                    if value.residue != padic_l(s, teichmuller_power(t, short)).residue:
                        wrong.append((p, digits, t, s))
    return wrong


def _shared_row_mismatches(p, digits):
    """(t, s, extra) where l_p(s, w^t) from the shared row, at digits + extra
    digits and reduced to digits, is not twice the sum of chi(a) H_p(s, a | p)
    over the classes a, each from the public partial zeta at digits."""
    ctx = PadicContext(p, digits)
    wrong = []
    for t in range(p - 1):
        chi = teichmuller_power(t, ctx)
        for s in range(-6, 9):
            per_class = sum(
                chi(a) * padic_partial_zeta(s, a, p, ctx).residue for a in range(1, p)
            )
            expected = 2 * per_class % ctx.modulus
            for extra in (0, 2):
                wide = teichmuller_power(t, PadicContext(p, digits + extra))
                if padic_l(s, wide).reduce(digits).residue != expected:
                    wrong.append((t, s, extra))
    return wrong


def _interpolation_report_mismatches():
    """(N, t, n) where the interpolation report at N + 4 digits, reduced to
    N digits, is not the report at N digits."""
    wrong = []
    for digits in (5, 6):
        short, long = PadicContext(5, digits), PadicContext(5, digits + 4)
        for t in range(4):
            for n in range(1, 9):
                tight = interpolation_check(n, teichmuller_power(t, short))
                wide = interpolation_check(n, teichmuller_power(t, long))
                if leading_digits(tight, digits) != leading_digits(wide, digits):
                    wrong.append((digits, t, n))
    return wrong


class TestPadicL:
    def test_value_at_minus_one(self):
        ctx = PadicContext(3, 6)
        value = padic_l(-1, teichmuller_power(1, ctx))
        assert value == ctx.from_int(1)  # equals (1 - 3) E_1 exactly

    def test_positive_argument_example(self):
        ctx = PadicContext(3, 2)
        value = padic_l(1, teichmuller_power(1, ctx))
        assert value.residue == 4

    def test_trivial_character_example(self):
        ctx = PadicContext(3, 2)
        value = padic_l(2, teichmuller_power(0, ctx))
        assert value.is_zero

    def test_values_lie_in_zp(self):
        for p in (3, 5, 7):
            ctx = PadicContext(p, 5)
            for t in range(p - 1):
                chi = teichmuller_power(t, ctx)
                for s in range(-4, 5):
                    assert padic_l(s, chi).valuation >= 0

    def test_truncation_soundness(self):
        # more series terms never change the reported residue
        assert not _truncation_mismatches()

    def test_truncation_soundness_sees_a_short_series(self, short_l_series):
        assert _truncation_mismatches()

    @pytest.mark.parametrize("p, digits", [(3, 6), (5, 4), (7, 3), (13, 2)])
    def test_shared_row_matches_the_per_class_sum(self, p, digits):
        # padic_l reads one row of H_p(s, a | p) per (s, context); the public
        # partial zeta builds each class a on its own, with no row.  t = 0 is
        # conductor 1, values (1,); there, and at every even t, both sides
        # are 0 by parity, so only odd t can tell a wrong row apart
        assert not _shared_row_mismatches(p, digits)

    @pytest.mark.parametrize("p, digits", [(3, 6), (5, 4), (13, 2)])
    def test_shared_row_sees_a_short_series(self, p, digits, short_l_series):
        # the row at digits + 2 is right mod p^digits, the short classes not
        assert {extra for _, _, extra in _shared_row_mismatches(p, digits)} == {2}


class TestInterpolation:
    def test_diagonal_twists_give_euler_numbers(self):
        # l_p(-n, w^t) = (1 - p^n) E_n whenever n = t mod p-1
        for p in (3, 5, 7):
            ctx = PadicContext(p, 6)
            for n in range(1, 9):
                value = padic_l(-n, teichmuller_power(n, ctx))
                rhs = oracles.residue((1 - p**n) * oracles.euler_number(n), ctx.modulus)
                assert value.residue == rhs and value.precision == ctx.precision

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

    def test_rejects_n_below_one(self):
        with pytest.raises(ValueError):
            interpolation_check(0, teichmuller_power(1, PadicContext(5, 4)))

    def test_margin_does_not_change_reports(self):
        # four more digits, and so four more series terms, reduced away
        assert not _interpolation_report_mismatches()

    def test_margin_sees_a_short_series(self, short_l_series):
        assert _interpolation_report_mismatches()


class TestKummer:
    def test_step_p_congruence(self):
        for p in (3, 5, 7):
            ctx = PadicContext(p, 4)
            for k in range(1, 9):
                report = kummer_check(k, 0, ctx)
                assert report.match
                assert report.precision == 1

    def test_values_vanish_mod_p_for_exponent_zero(self):
        for p in (3, 5, 7):
            chi = teichmuller_power(0, PadicContext(p, 1))
            for s in range(1, 9):
                value = padic_l(s, chi)
                assert value.is_zero

    def test_rejects_bad_exponent(self):
        ctx = PadicContext(5, 4)
        with pytest.raises(ValueError):
            kummer_check(1, 1, ctx)

    def test_nonzero_exponent_multiple_of_order_accepted(self):
        ctx = PadicContext(3, 4)
        report = kummer_check(2, 4, ctx)
        assert report.match
        # the report names the character w^4 = w^0 by its reduced exponent,
        # as interpolation does
        assert report.params["t"] == 0


class TestStrongKummer:
    def test_period_congruence(self):
        # k = k' mod (p-1) p^(m-1) implies l_p(k, w^t) = l_p(k', w^t) mod p^m
        for p in (3, 5, 7, 11):
            for m in (1, 2, 3):
                ctx = PadicContext(p, m)
                period = (p - 1) * p ** (m - 1)
                for t in range(p - 1):
                    chi = teichmuller_power(t, ctx)
                    for k in range(-3, 6):
                        lhs = padic_l(k, chi)
                        assert lhs == padic_l(k + period, chi), (p, t, m, k)

    def test_period_one_power_of_p_short_breaks(self):
        # negative control: mod p every value is independent of s (term j
        # carries p^j and <a> = 1 mod p), so only m >= 2 can fail
        for p in (3, 5, 7):
            for m in (2, 3):
                ctx = PadicContext(p, m)
                short = (p - 1) * p ** (m - 2)
                pairs = [
                    (padic_l(k, chi), padic_l(k + short, chi))
                    for chi in (teichmuller_power(t, ctx) for t in range(p - 1))
                    for k in range(1, 5)
                ]
                assert any(lhs != rhs for lhs, rhs in pairs), (p, m)


def _euler_value_holds(p, digits, t, s):
    """Whether l_p(s, w^t) mod p^M at s >= 1 is (1 - p^n chi_n(p))
    E_(n, chi_n), with n = c p^(M-1) - s >= 1 and chi_n = w^(t-n):
    s -> l_p(s, w^t) mod p^M has period p^(M-1), and at s = -n the value
    interpolates.  The right side is exact, from the oracle's Euler
    polynomials and closed-form Teichmuller lift, sharing no code with the
    series table."""
    period = p ** (digits - 1)
    n = (s // period + 1) * period - s
    value = padic_l(s, teichmuller_power(t, PadicContext(p, digits))).residue
    return value == oracles.interpolation_rhs(p, digits, n, t)


def _euler_value_mismatches():
    """(p, M, t, s) for p in 3, 5, 7, M in 2, 3, every t and s in 1..6
    where :func:`_euler_value_holds` fails."""
    return [
        (p, digits, t, s)
        for p in (3, 5, 7) for digits in (2, 3) for s in range(1, 7) for t in range(p - 1)
        if not _euler_value_holds(p, digits, t, s)
    ]


def _euler_value_cases():
    """(p, M, t, s) with p <= 7, M <= 3, t < 6 (w^t is w^(t mod p-1)) and s
    up to 8: n stays below 7^2."""
    from hypothesis import strategies as st

    primes, integers = st.sampled_from((3, 5, 7)), st.integers
    return st.tuples(primes, integers(1, 3), integers(0, 5), integers(1, 8))


class TestPositiveArgumentAgainstEulerNumbers:
    """The series at s >= 1, where the main congruence reads it, against an
    exact value; interpolation reads it only at s = -n, where the terms
    j > n vanish."""

    def test_values_match(self):
        assert not _euler_value_mismatches()

    def test_sees_a_short_series(self, short_l_series):
        assert _euler_value_mismatches()

    def test_values_match_anywhere(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
        @hypothesis.given(_euler_value_cases())
        def holds(case):
            assert _euler_value_holds(*case), case

        holds()

    def test_search_finds_a_short_series(self, short_l_series):
        # the same search space, searched for a counterexample under the
        # mutant; find raises NoSuchExample if it sees none
        hypothesis = pytest.importorskip("hypothesis")
        found = hypothesis.find(
            _euler_value_cases(), lambda case: not _euler_value_holds(*case),
            settings=hypothesis.settings(
                max_examples=200, deadline=None, derandomize=True, database=None
            ),
        )
        assert not _euler_value_holds(*found), found

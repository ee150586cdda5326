import math
import random
from fractions import Fraction

import oracles
import pytest
from conftest import mutated, random_rationals, recorded

from eulerlp import (
    alternating_power_sum,
    alternating_power_sum_closed,
    distribution_report,
    euler_number,
    euler_numbers,
    euler_polynomial,
    euler_polynomial_value,
)
from eulerlp import euler


class TestEulerNumbers:
    def test_base_case(self):
        assert euler_numbers(0) == [Fraction(1)]

    def test_first_eight(self):
        expected = [
            Fraction(1),
            Fraction(-1, 2),
            Fraction(0),
            Fraction(1, 4),
            Fraction(0),
            Fraction(-1, 2),
            Fraction(0),
            Fraction(17, 8),
        ]
        assert euler_numbers(7) == expected

    def test_against_bernoulli_oracle(self):
        # E_n = 2 (1 - 2^{n+1}) B_{n+1} / (n+1), an independent route
        B = oracles.bernoulli_numbers(31)
        for n in range(31):
            assert euler_number(n) == 2 * (1 - 2 ** (n + 1)) * B[n + 1] / (n + 1)

    def test_positive_even_indices_vanish(self):
        for k in range(1, 16):
            assert euler_number(2 * k) == 0

    def test_denominators_are_powers_of_two(self):
        for n in range(31):
            d = euler_number(n).denominator
            assert d & (d - 1) == 0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            euler_number(-1)

    def test_growth_order_does_not_change_values(self):
        # Each order starts from an unbuilt table: one jump to n = 601 and
        # then the small n, or the table grown one index at a time.
        orders = ([601, *range(601)], list(range(602)))
        tables = []
        for order in orders:
            with mutated(euler, "_tangent", [0]):
                tables.append({n: euler_number(n) for n in order})
        assert tables[0] == tables[1]
        assert [tables[0][n] for n in range(602)] == euler_numbers(601)

    @staticmethod
    def _count_builds(request):
        """Tangent-table builds made by request() from an unbuilt table and
        a cold euler_number cache."""
        with mutated(euler, "_tangent", [0]), recorded(euler, "_tangent_numbers") as builds:
            request()
        return [m for (m,) in builds]

    def test_one_index_at_a_time_rebuilds_by_doubling(self):
        # n = 601 needs T_301; doubling from T_1 gets there in 10 builds,
        # a rebuild per new index would take 301
        builds = self._count_builds(lambda: [euler_number(n) for n in range(602)])
        assert len(builds) <= math.ceil(math.log2(301)) + 1, builds
        assert builds[-1] >= 301

    def test_cold_table_is_built_once(self):
        builds = self._count_builds(lambda: euler_numbers(600))
        assert builds == [300]


class TestEulerPolynomial:
    def test_degree_zero(self):
        assert euler_polynomial(0) == (Fraction(1),)

    def test_degree_one(self):
        assert euler_polynomial(1) == (Fraction(-1, 2), Fraction(1))

    def test_degree_two(self):
        # x^2 - x
        assert euler_polynomial(2) == (
            Fraction(0),
            Fraction(-1),
            Fraction(1),
        )

    def test_monic_with_forced_subleading_coefficient(self):
        for n in range(1, 21):
            poly = euler_polynomial(n)
            assert poly[n] == 1
            assert poly[n - 1] == Fraction(-n, 2)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            euler_polynomial(-1)

    def test_eval_examples(self):
        assert euler_polynomial_value(1, Fraction(1, 3)) == Fraction(-1, 6)
        assert euler_polynomial_value(2, Fraction(2, 3)) == Fraction(-2, 9)

    def test_odd_polynomials_vanish_at_one_half(self):
        for n in range(1, 22, 2):
            assert euler_polynomial_value(n, Fraction(1, 2)) == 0

    def test_functional_equation(self):
        # E_n(x+1) + E_n(x) = 2 x^n
        rng = random.Random(2024)
        points = random_rationals(rng, 50)
        for n in range(21):
            for x in points:
                lhs = euler_polynomial_value(n, x + 1) + euler_polynomial_value(n, x)
                assert lhs == 2 * x**n

    def test_reflection(self):
        # E_n(1-x) = (-1)^n E_n(x)
        rng = random.Random(99)
        points = random_rationals(rng, 20)
        for n in range(21):
            for x in points:
                lhs = euler_polynomial_value(n, 1 - x)
                assert lhs == (-1) ** n * euler_polynomial_value(n, x)


def _fraction(value) -> Fraction:
    """A sympy Rational as a Fraction."""
    return Fraction(int(value.p), int(value.q))


class TestSympyOracle:
    """sympy.euler(n, x) shares no code with this package, nor with the
    Fraction recurrence of oracles.py, which two of these loops check too."""

    def test_euler_numbers(self):
        sympy = pytest.importorskip("sympy")
        for n in range(60):
            expected = _fraction(sympy.euler(n, 0))
            assert euler_number(n) == oracles.euler_number(n) == expected

    def test_polynomial_values(self):
        sympy = pytest.importorskip("sympy")
        points = [Fraction(1, 3), Fraction(-2, 7), Fraction(5, 4), Fraction(11, 2)]
        for n in range(25):
            for x in points:
                expected = _fraction(sympy.euler(n, sympy.Rational(x.numerator, x.denominator)))
                assert euler_polynomial_value(n, x) == oracles.euler_polynomial(n, x) == expected

    def test_polynomial_coefficients(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for n in range(25):
            coefficients = sympy.Poly(sympy.euler(n, x), x).all_coeffs()[::-1]
            assert euler_polynomial(n) == tuple(_fraction(c) for c in coefficients)


class TestFractionOracle:
    """The Fraction recurrence that the library's integer table replaced."""

    def test_euler_numbers(self):
        assert euler_numbers(400) == [oracles.euler_number(n) for n in range(401)]


@pytest.fixture(scope="module")
def zigzag():
    """A_0..A_2000 by the boustrophedon, shared by the oracle tests below."""
    return oracles.zigzag_numbers(2000)


class TestBoustrophedonOracle:
    """The zigzag numbers by the boustrophedon, an algorithm apart from the
    tangent recurrence that the library and the CLI tests' oracle share."""

    def test_euler_numbers(self, zigzag):
        expected = [Fraction(1)] + [
            Fraction((-1) ** ((n + 1) // 2) * zigzag[n], 2**n) if n % 2 else Fraction(0)
            for n in range(1, 1201)
        ]
        assert euler_numbers(1200) == expected

    def test_tangent_table(self, zigzag):
        # the short tables (m = 1, 2) run no pass, or one on a slice of one
        for m in [*range(1, 81), 301, 601]:
            expected = [0] + [zigzag[2 * k - 1] for k in range(1, m + 1)]
            assert euler._tangent_numbers(m) == expected, m

    def test_pairs_in_lowest_terms(self, zigzag):
        # on the ints themselves: a Fraction would reduce an unreduced pair
        for n, (num, den) in enumerate(euler.euler_number_pairs(2000)):
            assert math.gcd(num, den) == 1, n
            assert den & (den - 1) == 0, n
            if n % 2 == 0:
                expected = Fraction(int(n == 0))
            else:
                expected = Fraction((-1) ** ((n + 1) // 2) * zigzag[n], 2**n)
            assert (num, den) == (expected.numerator, expected.denominator), n


def _euler_residue_classes(pairs, p, digits, period):
    """The residues mod p^digits of (1 - p^n) E_n at odd n, one set for
    each class of n mod period."""
    m = p**digits
    classes = {}
    for n in range(1, len(pairs), 2):
        num, den = pairs[n]
        residue = (1 - pow(p, n, m)) * num * pow(den, -1, m) % m
        classes.setdefault(n % period, set()).add(residue)
    return classes.values()


# every (p, M) whose period (p-1) p^(M-1) puts two odd n <= PERIOD_NMAX in
# one class
PERIOD_NMAX = 1500
PERIOD_CASES = [
    (p, digits)
    for p in (3, 5, 7, 11, 13)
    for digits in (1, 2, 3)
    if (p - 1) * p ** (digits - 1) < PERIOD_NMAX
]


class TestEulerNumberPeriod:
    """Kummer's congruence at conductor 1, the corollary of l_p's period:
    (1 - p^n) E_n = (1 - p^n') E_n' mod p^M for odd n = n' mod
    (p-1) p^(M-1).  It checks the large-n table with no second table and
    no series: each class of n holding one residue checks every pair in it."""

    @pytest.fixture(scope="class")
    def pairs(self):
        return euler.euler_number_pairs(PERIOD_NMAX)

    @pytest.mark.parametrize("p, digits", PERIOD_CASES)
    def test_one_residue_per_class(self, pairs, p, digits):
        period = (p - 1) * p ** (digits - 1)
        classes = _euler_residue_classes(pairs, p, digits, period)
        assert all(len(residues) == 1 for residues in classes)

    @pytest.mark.parametrize("p, digits", [case for case in PERIOD_CASES if case[1] >= 2])
    def test_period_one_power_of_p_short_breaks(self, pairs, p, digits):
        # negative control: at (p-1) p^(M-2) some class holds two residues
        period = (p - 1) * p ** (digits - 2)
        classes = _euler_residue_classes(pairs, p, digits, period)
        assert any(len(residues) > 1 for residues in classes)


class TestAlternatingPowerSums:
    @pytest.mark.parametrize(
        "n,m,expected", [(2, 1, -2), (4, 2, -12), (2, 0, 0), (0, 5, 0)]
    )
    def test_direct_examples(self, n, m, expected):
        assert alternating_power_sum(n, m) == expected

    @pytest.mark.parametrize("n,m,expected", [(2, 1, -2), (4, 2, -12), (2, 0, 0)])
    def test_closed_examples(self, n, m, expected):
        assert alternating_power_sum_closed(n, m) == expected

    def test_closed_matches_direct(self):
        for n in range(2, 21, 2):
            for m in range(13):
                assert alternating_power_sum_closed(n, m) == alternating_power_sum(n, m)

    @pytest.mark.parametrize(
        "function, n, m",
        [
            (alternating_power_sum_closed, 3, 2),  # odd n
            (alternating_power_sum_closed, 0, 2),  # n below 2
            (alternating_power_sum_closed, 2, -1),
            (alternating_power_sum, -1, 2),
            (alternating_power_sum, 2, -1),
        ],
    )
    def test_rejects_bad_arguments(self, function, n, m):
        with pytest.raises(ValueError):
            function(n, m)


class TestDistribution:
    def test_examples(self):
        assert distribution_report(1, 3, 0).match
        assert distribution_report(5, 5, Fraction(1, 2)).match

    def test_f_one_is_identity(self):
        rng = random.Random(5)
        for x in random_rationals(rng, 10):
            for n in range(8):
                assert distribution_report(n, 1, x).match

    def test_random_points(self):
        rng = random.Random(31415)
        points = random_rationals(rng, 20)
        for n in range(13):
            for f in (1, 3, 5, 7):
                for x in points:
                    assert distribution_report(n, f, x).match

    @pytest.mark.parametrize("n, f", [(2, 4), (-1, 3)])  # even f, negative n
    def test_rejects_bad_arguments(self, n, f):
        with pytest.raises(ValueError):
            distribution_report(n, f, 0)

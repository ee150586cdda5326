"""The integer kernels of the euler layer against Fractions: the homogeneous
Horner loop behind ``euler_polynomial_value`` and ``distribution_report``
against the Fraction Horner loop of oracles.py, over Euler numbers from the
exact recurrence, which shares no code with the library's tangent table or
its scaled coefficients, and the int alternating power sum against a
Fraction sum."""

from fractions import Fraction

import oracles
import pytest
from oracles import euler_polynomial

from eulerlp import alternating_power_sum, euler_polynomial_value
from eulerlp.harness import distribution_report

NMAX = 40


def test_int_horner_matches_euler_polynomial():
    hypothesis = pytest.importorskip("hypothesis")
    st, example = hypothesis.strategies, hypothesis.example
    rationals = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30))

    @hypothesis.given(st.integers(0, NMAX), rationals)
    @example(0, Fraction(-7, 3))
    @example(1, Fraction(-1, 2))
    @example(NMAX, Fraction(-(10**29) - 1, 10**30 - 7))
    @example(NMAX - 1, Fraction(12345, 2**95))
    def holds(n, x):
        assert euler_polynomial_value(n, x) == euler_polynomial(n, x)

    holds()


def test_integer_points():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.given(st.integers(0, NMAX), st.integers(-(10**6), 10**6))
    def holds(n, x):
        assert euler_polynomial_value(n, x) == euler_polynomial(n, Fraction(x))

    holds()


def test_distribution_sides_match_fraction_sides():
    # E_n(x) and f^n sum_a (-1)^a E_n((x + a) / f), each side on Fractions
    hypothesis = pytest.importorskip("hypothesis")
    st, example = hypothesis.strategies, hypothesis.example

    @hypothesis.given(
        st.integers(0, 30),
        st.sampled_from((1, 3, 5, 7, 9)),
        st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**12)),
    )
    @example(0, 1, Fraction(0))
    @example(30, 9, Fraction(-(10**12), 10**12 - 1))
    @example(7, 3, Fraction(-2, 7))
    def holds(n, f, x):
        report = distribution_report(n, f, x)
        assert report.as_dict() == oracles.distribution_report(n, f, x.numerator, x.denominator)
        assert report.match

    holds()


def test_alternating_power_sum_matches_fraction_sum():
    # includes 0^0 = 1 at (n, m) = (1, 0) and the empty sum at (0, 0)
    assert alternating_power_sum(0, 0) == 0
    assert alternating_power_sum(1, 0) == 2
    for n in range(41):
        for m in range(13):
            expected = 2 * sum((-1) ** l * Fraction(l) ** m for l in range(n))
            value = alternating_power_sum(n, m)
            assert isinstance(value, Fraction)
            assert value == expected, (n, m)

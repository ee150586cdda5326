"""The int Horner loop of ``euler_polynomial_value`` against a Fraction
Horner loop over Euler numbers from the exact recurrence in conftest, which
shares no code with the library's tangent table or its scaled coefficients."""

from fractions import Fraction
from math import comb

import pytest

pytest.importorskip("hypothesis")
from conftest import euler_numbers_by_recurrence
from hypothesis import example, given
from hypothesis import strategies as st

from eulerlp import euler_polynomial_value

NMAX = 40
EULER = euler_numbers_by_recurrence(NMAX)


def fraction_horner(n, x):
    """E_n(x) = sum_i C(n, i) E_(n-i) x^i by Horner's rule on Fractions."""
    value = Fraction(0)
    for i in range(n, -1, -1):
        value = value * x + comb(n, i) * EULER[n - i]
    return value


rationals = st.builds(
    Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)
)


@given(st.integers(0, NMAX), rationals)
@example(0, Fraction(-7, 3))
@example(1, Fraction(-1, 2))
@example(NMAX, Fraction(-(10**29) - 1, 10**30 - 7))
@example(NMAX - 1, Fraction(12345, 2**95))
def test_int_horner_matches_fraction_horner(n, x):
    assert euler_polynomial_value(n, x) == fraction_horner(n, x)


@given(st.integers(0, NMAX), st.integers(-(10**6), 10**6))
def test_integer_points(n, x):
    assert euler_polynomial_value(n, x) == fraction_horner(n, Fraction(x))

"""Euler numbers, Euler polynomials, alternating power sums, and partial
zeta values at negative integers.

The Euler numbers come from one integer table of zigzag numbers, grown on
demand with the Seidel-Entringer-Arnold boustrophedon; every value this
module returns is exact (a ``Fraction`` at the API).

Conventions: E_n(x) is the coefficient sequence of 2 e^{xt} / (e^t + 1) and
E_n = E_n(0), so E_0 = 1, E_1 = -1/2, E_3 = 1/4, and every E_n has a power
of two as denominator (making each one a p-adic integer for odd p).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

Rational = Fraction | int


# Zigzag numbers A_0, A_1, ... and the boustrophedon row that produced the
# last of them.  Both start at row 0 and grow only when _zigzag asks, so
# importing this module builds nothing.
_zigzag_table = [1]
_row = [1]


def _zigzag(n: int) -> int:
    """A_n, the number of alternating permutations of n letters.

    Row k of the Seidel-Entringer-Arnold boustrophedon starts at 0 and adds
    the entries of row k-1 read backwards; it ends in A_k.  Odd rows are
    stored reversed, so each step puts a 0 at one end of the one row list
    and accumulates toward the other end, in place.
    """
    table, row = _zigzag_table, _row
    for k in range(len(table), n + 1):
        if k % 2:
            row.append(0)
            for i in range(k - 1, -1, -1):
                row[i] += row[i + 1]
            table.append(row[0])
        else:
            row.insert(0, 0)
            for i in range(1, k + 1):
                row[i] += row[i - 1]
            table.append(row[k])
    return table[n]


@lru_cache(maxsize=None)
def euler_number(n: int) -> Fraction:
    """The n-th Euler number E_n = E_n(0).

    E_0 = 1 and E_n = 0 for even n >= 2 (2 / (e^t + 1) - 1 is odd); for odd
    n, E_n = (-1)^((n+1)/2) A_n / 2^n with A_n the zigzag number.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(1)
    if n % 2 == 0:
        return Fraction(0)
    sign = -1 if n % 4 == 1 else 1
    return Fraction(sign * _zigzag(n), 1 << n)


def euler_numbers(nmax: int) -> list[Fraction]:
    """[E_0, E_1, ..., E_nmax]."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    return [euler_number(k) for k in range(nmax + 1)]


@lru_cache(maxsize=None)
def _scaled_euler_polynomial(n: int) -> tuple[int, ...]:
    """Entry i is C(n, i) 2^(n-i) E_(n-i), the x^i coefficient of
    2^n E_n(x / 2); every 2^m E_m is an integer."""
    if n < 0:
        raise ValueError("n must be >= 0")
    coefficients = []
    for i in range(n + 1):
        e = euler_number(n - i)  # denominator a power of two up to 2^(n-i)
        coefficients.append(comb(n, i) * e.numerator * ((1 << (n - i)) // e.denominator))
    return tuple(coefficients)


def euler_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients of E_n(x) = sum_{k=0}^{n} C(n, k) E_k x^{n-k}; entry i
    multiplies x^i.

    E_n(x) is monic of degree n, and for n >= 1 the x^{n-1} coefficient is
    -n/2 (the binomial expansion pins it to n * E_1).
    """
    return tuple(
        Fraction(c, 1 << (n - i)) for i, c in enumerate(_scaled_euler_polynomial(n))
    )


def euler_polynomial_value(n: int, x: Rational) -> Fraction:
    """E_n evaluated at a rational point, exactly.

    For x = u/v, a homogeneous Horner loop on ints gives
    (2v)^n E_n(u/v) = sum_i C(n, i) 2^(n-i) E_(n-i) (2u)^i v^(n-i), and one
    ``Fraction`` is built at the end.
    """
    x = Fraction(x)
    two_u, v = 2 * x.numerator, x.denominator
    coefficients = _scaled_euler_polynomial(n)
    acc, v_power = coefficients[n], 1
    for c in reversed(coefficients[:n]):
        v_power *= v
        acc = acc * two_u + c * v_power
    return Fraction(acc, (2 * v) ** n)


def alternating_power_sum(n: int, m: int) -> Fraction:
    """2 sum_{l=0}^{n-1} (-1)^l l^m by direct summation (0^0 counts as 1)."""
    if n < 0 or m < 0:
        raise ValueError("n and m must be >= 0")
    return 2 * sum((((-1) ** l) * Fraction(l) ** m for l in range(n)), Fraction(0))


def alternating_power_sum_closed(n: int, m: int) -> Fraction:
    """Closed form of :func:`alternating_power_sum` for even n:

        -sum_{l=0}^{m-1} C(m, l) E_l n^{m-l}  =  E_m - E_m(n)
    """
    if n < 2 or n % 2:
        raise ValueError("the closed form needs even n >= 2")
    if m < 0:
        raise ValueError("m must be >= 0")
    return euler_number(m) - euler_polynomial_value(m, n)


def partial_zeta_neg(n: int, a: int, modulus: int) -> Fraction:
    """Value at -n of the alternating partial zeta restricted to the class
    a mod modulus: (-1)^a (modulus^n / 2) E_n(a / modulus)."""
    if modulus < 1 or modulus % 2 == 0:
        raise ValueError("modulus must be odd")
    if not 0 < a < modulus:
        raise ValueError("need 0 < a < modulus")
    if n < 0:
        raise ValueError("n must be >= 0")
    sign = -1 if a % 2 else 1
    return Fraction(sign * modulus**n, 2) * euler_polynomial_value(n, Fraction(a, modulus))


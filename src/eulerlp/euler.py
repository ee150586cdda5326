"""Euler numbers, Euler polynomials and alternating power sums.

The Euler numbers come from one integer table of tangent numbers, rebuilt
at twice its size when a request passes its end; every value this module
returns is exact: (numerator, denominator) int pairs inside the library, and
a ``Fraction``, built by ``_fraction``, from each public function.

Conventions: E_n(x) is the coefficient sequence of 2 e^{xt} / (e^t + 1) and
E_n = E_n(0), so E_0 = 1, E_1 = -1/2, E_3 = 1/4, and every E_n has a power
of two as denominator (making each one a p-adic integer for odd p).
"""

from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import mul


def _fraction(*args) -> "Fraction":
    """``Fraction(*args)``; ``fractions`` (with ``decimal`` and ``numbers``)
    loads on the first call, like ``csv`` in ``reports.reports_to_csv``."""
    from fractions import Fraction

    return Fraction(*args)


# entry k is the tangent number T_k = A_(2k-1); unbuilt until a request
_tangent = [0]


def _tangent_numbers(m: int) -> list[int]:
    """[0, T_1, ..., T_m] for m >= 1, by the recurrence of Knuth and Buckholtz
    (Math. Comp. 21, 1967) in Brent and Harvey's form ("Fast computation of
    Bernoulli, Tangent and Secant numbers", 2013), m^2/2 cells.  Pass k,
    t[j] = (j-k) t[j-1] + (j-k+2) t[j] for j >= k, runs divided by (j-k)!:
    x[j] = x[j-1] + (i+1)(i+2) x[j] with i = j-k, one prefix sum, after a
    pass 1 that leaves every x[j] = 1; pass k leaves x[k] = T_k.  Entry j
    depends on every pass up to j, so the table cannot grow in place."""
    x = [0] + [1] * m
    weights = [(i + 1) * (i + 2) for i in range(m)]
    for k in range(2, m + 1):
        x[k:] = accumulate(map(mul, weights, x[k:]))
    return x


def _tangent_number(k: int) -> int:
    """T_k; a k past the table's end rebuilds it to max(k, twice its size)."""
    global _tangent
    if k >= len(_tangent):
        _tangent = _tangent_numbers(max(k, 2 * (len(_tangent) - 1)))
    return _tangent[k]


def _euler_parts(n: int) -> tuple[int, int]:
    """E_n in lowest terms as (numerator, denominator): E_0 = 1, E_n = 0 at
    even n >= 2 (2 / (e^t + 1) - 1 is odd), and (-1)^k T_k / 2^n at odd
    n = 2k - 1, with the power of two dividing T_k (below 2^n) shifted out."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 2 == 0:
        return int(n == 0), 1
    t = _tangent_number((n + 1) // 2)
    shift = (t & -t).bit_length() - 1
    return (t >> shift) * (1 if n % 4 == 3 else -1), 1 << (n - shift)


@lru_cache(maxsize=None)
def euler_number(n: int) -> "Fraction":
    """The n-th Euler number E_n = E_n(0)."""
    return _fraction(*_euler_parts(n))


def euler_number_pairs(nmax: int) -> list[tuple[int, int]]:
    """(numerator, denominator) of E_0, ..., E_nmax in lowest terms; sizes the table once."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    _tangent_number((nmax + 1) // 2)
    return [_euler_parts(n) for n in range(nmax + 1)]


def euler_numbers(nmax: int) -> "list[Fraction]":
    """[E_0, E_1, ..., E_nmax], from a tangent table sized once."""
    return [_fraction(*pair) for pair in euler_number_pairs(nmax)]


@lru_cache(maxsize=None)
def _scaled_euler_polynomial(n: int) -> tuple[int, ...]:
    """Entry i is C(n, i) 2^(n-i) E_(n-i), the x^i coefficient of
    2^n E_n(x / 2); every 2^m E_m is an integer."""
    if n < 0:
        raise ValueError("n must be >= 0")
    coefficients = []
    for i in range(n + 1):
        num, den = _euler_parts(n - i)  # den a power of two up to 2^(n-i)
        coefficients.append(comb(n, i) * num * ((1 << (n - i)) // den))
    return tuple(coefficients)


def euler_polynomial(n: int) -> "tuple[Fraction, ...]":
    """Coefficients of E_n(x) = sum_{k=0}^{n} C(n, k) E_k x^{n-k}; entry i
    multiplies x^i.

    E_n(x) is monic of degree n, and for n >= 1 the x^{n-1} coefficient is
    -n/2 (the binomial expansion pins it to n * E_1).
    """
    return tuple(
        _fraction(c, 1 << (n - i)) for i, c in enumerate(_scaled_euler_polynomial(n))
    )


def _euler_form(n: int, u: int, v: int) -> int:
    """H(n, u, v) = (2v)^n E_n(u/v) = sum_i C(n, i) 2^(n-i) E_(n-i) (2u)^i
    v^(n-i) for ints u and v != 0, by a homogeneous Horner loop on ints."""
    two_u = 2 * u
    coefficients = _scaled_euler_polynomial(n)
    acc, v_power = coefficients[n], 1
    for c in reversed(coefficients[:n]):
        v_power *= v
        acc = acc * two_u + c * v_power
    return acc


def euler_polynomial_value(n: int, x: "Fraction | int") -> "Fraction":
    """E_n evaluated at a rational point x = u/v, exactly: H(n, u, v) on
    ints, and one ``Fraction`` built at the end."""
    x = _fraction(x)
    return _fraction(_euler_form(n, x.numerator, x.denominator), (2 * x.denominator) ** n)


def _alternating_power_sum(n: int, m: int) -> int:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return 2 * sum(-(l**m) if l % 2 else l**m for l in range(n))


def alternating_power_sum(n: int, m: int) -> "Fraction":
    """2 sum_{l=0}^{n-1} (-1)^l l^m, summed on ints (0^0 counts as 1)."""
    return _fraction(_alternating_power_sum(n, m))


def _alternating_power_sum_closed(n: int, m: int) -> tuple[int, int]:
    """E_m - E_m(n) = (2^m E_m - H(m, n, 1)) / 2^m as an int pair."""
    if n < 2 or n % 2:
        raise ValueError(f"the closed form needs even n >= 2, got {n}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return _scaled_euler_polynomial(m)[0] - _euler_form(m, n, 1), 1 << m


def alternating_power_sum_closed(n: int, m: int) -> "Fraction":
    """Closed form of :func:`alternating_power_sum` for even n:

        -sum_{l=0}^{m-1} C(m, l) E_l n^{m-l}  =  E_m - E_m(n)
    """
    return _fraction(*_alternating_power_sum_closed(n, m))


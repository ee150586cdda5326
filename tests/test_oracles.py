"""The oracle's primitives against their defining properties.

The other test modules compare the library with oracles.py; these tests
check oracles.py itself, with no library and no sympy, so that an oracle
that drifts with the library cannot pass unseen.
"""

from fractions import Fraction
from itertools import product
from math import comb

from oracles import alt_harmonic_sum, angle, binomial, lifts, partial_zeta_row, residue, wire

PRIMES = (3, 5, 7, 11)


def test_lift_is_the_root_of_unity_congruent_to_a():
    for p in PRIMES:
        for M in range(1, 6):
            m, w = p**M, lifts(p, M)
            assert w[0] == 0
            for a in range(1, p):
                assert w[a] % p == a
                assert pow(w[a], p - 1, m) == 1, (p, M, a)


def test_angle_is_one_mod_p_and_multiplicative():
    for p in PRIMES:
        for M in range(1, 5):
            m = p**M
            units = [a for a in range(1, 3 * p) if a % p]
            for a in units:
                assert angle(p, M, a) % p == 1
                for b in units:
                    assert angle(p, M, a * b) == angle(p, M, a) * angle(p, M, b) % m


def test_binomial_is_the_falling_product():
    for j in range(8):
        for z in range(10):
            assert binomial(z, j) == comb(z, j)
            # upper negation: C(-z, j) = (-1)^j C(z + j - 1, j)
            assert binomial(-z - 1, j) == (-1) ** j * comb(z + j, j)
    for j in range(1, 8):
        for z in range(-9, 10):
            assert binomial(z, j) == binomial(z - 1, j) + binomial(z - 1, j - 1)


def test_residue_and_wire_invert_their_encodings():
    for p in PRIMES:
        for M in range(1, 5):
            m = p**M
            for q in (Fraction(1, 2), Fraction(-7, 4), Fraction(p, 8), Fraction(0)):
                value = residue(q, m)
                assert 0 <= value < m and value * q.denominator % m == q.numerator % m
                side = wire(p, M, value)
                assert sum(d * p**i for i, d in enumerate(side["digits"])) == value
                assert value % p ** side["valuation"] == 0


def test_partial_zeta_row_is_exact_at_M_terms():
    # term j carries (F/a)^j and so p^j: terms past M change nothing mod p^M
    for p, F in ((3, 3), (5, 5), (5, 15), (7, 7)):
        for M in range(1, 4):
            for s in range(-3, 4):
                assert partial_zeta_row(p, M, s, F) == partial_zeta_row(p, M, s, F, M + 3)


def test_alt_harmonic_sum_in_halves_is_the_sum_in_order():
    for p, n, r in product((3, 5, 7), range(4), (1, 2, 3)):
        terms = (Fraction((-1) ** j, j**r) for j in range(1, n * p + 1) if j % p)
        assert alt_harmonic_sum(p, n, r) == sum(terms, Fraction(0)), (p, n, r)

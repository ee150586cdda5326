import random
from fractions import Fraction

import pytest
from conftest import random_rationals

from eulerlp import PadicContext, angle, binomial, teichmuller


@pytest.fixture
def z3():
    return PadicContext(3, 2)


@pytest.fixture
def z5():
    return PadicContext(5, 2)


class TestContext:
    def test_rejects_non_odd_primes(self):
        for bad in (0, 1, 2, 4, 9, 15):
            with pytest.raises(ValueError):
                PadicContext(bad, 2)

    def test_rejects_zero_precision(self):
        with pytest.raises(ValueError):
            PadicContext(3, 0)

    def test_modulus(self, z3):
        assert z3.modulus == 9


class TestFromRational:
    def test_one_half_mod_nine(self, z3):
        assert z3.from_rational(Fraction(1, 2)).residue == 5

    def test_negative_fraction(self, z3):
        assert z3.from_rational(Fraction(-11, 20)).residue == 8

    def test_zero_has_full_valuation_flag(self, z3):
        z = z3.from_rational(0)
        assert z.is_zero
        assert z.valuation == z3.precision

    def test_rejects_p_in_denominator(self, z3):
        with pytest.raises(ValueError):
            z3.from_rational(Fraction(1, 3))
        with pytest.raises(ValueError):
            z3.from_rational(Fraction(2, 15))

    def test_ring_morphism_on_random_inputs(self):
        ctx = PadicContext(7, 5)
        rng = random.Random(77)
        qs = [q for q in random_rationals(rng, 40) if q.denominator % 7]
        for q1, q2 in zip(qs[::2], qs[1::2]):
            assert ctx.from_rational(q1 * q2) == ctx.from_rational(q1) * ctx.from_rational(q2)
            assert ctx.from_rational(q1 + q2) == ctx.from_rational(q1) + ctx.from_rational(q2)


class TestArithmetic:
    def test_add_identity(self, z3):
        x = z3.from_int(7)
        assert x + 0 == x
        assert 0 + x == x

    def test_add_wraps(self, z3):
        assert (z3.from_int(5) + z3.from_int(5)).residue == 1

    def test_square_of_p_vanishes(self, z3):
        x = z3.from_int(3)
        y = x * x
        assert y.is_zero
        assert y.valuation == 2  # lower bound: residue is 0 mod 3^2

    def test_sub_and_neg(self, z3):
        x = z3.from_int(4)
        assert (x - x).is_zero
        assert (-x).residue == 5
        assert (1 - x).residue == 6

    def test_context_mismatch_rejected(self, z3, z5):
        with pytest.raises(ValueError):
            z3.from_int(1) + z5.from_int(1)
        with pytest.raises(ValueError):
            z3.from_int(1) + PadicContext(3, 3).from_int(1)

    def test_precision_propagates_through_add(self, z3):
        coarse = z3.from_int(4).reduce(1)
        out = coarse + z3.from_int(1)
        assert out.precision == 1
        assert out.residue == 2

    def test_mul_precision_gains_from_valuation(self):
        ctx = PadicContext(3, 4)
        coarse = ctx.from_int(2).reduce(2)  # unit known mod 3^2
        shifted = ctx.from_int(9)  # valuation 2
        assert (coarse * shifted).precision == 4


class TestInverse:
    def test_examples(self, z3, z5):
        assert z5.from_int(7).inverse().residue == 18
        assert z3.from_int(8).inverse().residue == 8
        assert z3.from_int(1).inverse() == z3.from_int(1)

    def test_two_sided(self, z5):
        for a in (1, 2, 3, 4, 6, 7, 8, 9):
            x = z5.from_int(a)
            assert (x * x.inverse()).residue == 1
            assert (x.inverse() * x).residue == 1

    def test_non_unit_rejected(self, z5):
        with pytest.raises(ZeroDivisionError):
            z5.from_int(5).inverse()
        with pytest.raises(ZeroDivisionError):
            z5.from_int(0).inverse()


class TestPowers:
    def test_zeroth_power(self, z5):
        x = z5.from_int(7)
        assert (x**0).residue == 1

    def test_inverse_power_example(self, z5):
        assert (angle(2, z5) ** -1).residue == 16

    def test_minus_one_to_negative_odd(self, z5):
        x = z5.from_int(-1)
        assert x**-3 == x

    def test_negative_power_of_non_unit_rejected(self, z5):
        with pytest.raises(ZeroDivisionError):
            z5.from_int(10) ** -1

    def test_matches_int_pow(self, z3):
        for a in (1, 2, 4, 5, 7, 8):
            for e in range(6):
                assert (z3.from_int(a) ** e).residue == pow(a, e, 9)


class TestTeichmuller:
    def test_one_is_fixed(self, z5):
        assert teichmuller(1, z5).residue == 1

    def test_minus_one_is_its_own_lift(self):
        for p in (3, 5, 7):
            ctx = PadicContext(p, 4)
            assert teichmuller(p - 1, ctx).residue == ctx.modulus - 1

    def test_small_example(self, z5):
        assert teichmuller(2, z5).residue == 7

    def test_rejects_multiples_of_p(self, z5):
        with pytest.raises(ValueError):
            teichmuller(10, z5)

    def test_defining_properties(self):
        cases = [(p, N) for p in (3, 5, 7) for N in (1, 3, 8)]
        for p, N in cases + [(31, 40), (101, 30), (31, 1), (101, 1)]:
            ctx = PadicContext(p, N)
            for a in range(1, 3 * p):
                if a % p == 0:
                    continue
                w = teichmuller(a, ctx)
                assert (w ** (p - 1)).residue == 1
                assert w.residue % p == a % p

    def test_multiplicative(self):
        for p in (3, 5, 7):
            for N in (2, 8):
                ctx = PadicContext(p, N)
                units = [a for a in range(1, p * p) if a % p]
                lifts = {a: teichmuller(a, ctx) for a in units}
                for a in units:
                    for b in units:
                        assert lifts[a] * lifts[b] == teichmuller(a * b, ctx)


class TestAngle:
    def test_examples(self, z5):
        assert angle(1, z5).residue == 1
        assert angle(2, z5).residue == 11
        assert angle(4, z5).residue == 21

    def test_congruent_to_one_mod_p(self):
        for p in (3, 5, 7):
            ctx = PadicContext(p, 6)
            for a in range(1, 4 * p):
                if a % p:
                    assert angle(a, ctx).residue % p == 1

    def test_recombines_with_lift(self, z5):
        for a in (1, 2, 3, 4, 6, 7):
            assert angle(a, z5) * teichmuller(a, z5) == z5.from_int(a)


class TestBinomial:
    def test_minus_one(self):
        for k in range(10):
            assert binomial(-1, k) == (-1) ** k

    def test_small_negatives(self):
        assert binomial(-2, 2) == 3
        assert binomial(-3, 2) == 6

    def test_nonnegative_agrees_with_comb(self):
        from math import comb

        for z in range(8):
            for j in range(8):
                assert binomial(z, j) == comb(z, j)

    def test_always_integer(self):
        for z in range(-12, 13):
            for j in range(10):
                assert isinstance(binomial(z, j), int)

    def test_product_identity(self):
        # C(-r,k) C(-r-k,j) = C(-r,k+j) C(k+j,j)
        for r in range(1, 11):
            for k in range(1, 11):
                for j in range(1, 11):
                    lhs = binomial(-r, k) * binomial(-r - k, j)
                    rhs = binomial(-r, k + j) * binomial(k + j, j)
                    assert lhs == rhs

    def test_ratio_identity(self):
        # (r/(r+k)) C(-r-1,k) = C(-r,k)
        for r in range(1, 11):
            for k in range(0, 11):
                assert Fraction(r, r + k) * binomial(-r - 1, k) == binomial(-r, k)

    def test_rejects_negative_j(self):
        with pytest.raises(ValueError):
            binomial(3, -1)


class TestPrecisionOps:
    def test_reduce(self, z3):
        x = z3.from_int(7)
        assert x.reduce(1).residue == 1
        with pytest.raises(ValueError):
            x.reduce(1).reduce(2)

    def test_div_p(self):
        ctx = PadicContext(3, 4)
        x = ctx.from_int(18)
        y = x.div_p(2)
        assert y.residue == 2
        assert y.precision == 2
        assert x.div_p(0) == x

    def test_div_p_guards(self):
        ctx = PadicContext(3, 4)
        with pytest.raises(ValueError):
            ctx.from_int(2).div_p(1)
        with pytest.raises(ValueError):
            ctx.from_int(81).div_p(4)  # no digits would remain
        with pytest.raises(ValueError):
            ctx.from_int(8).div_p(-1)


class TestSerialization:
    def test_digit_order_is_little_endian(self, z3):
        assert z3.from_int(5).digits() == [2, 1]

    def test_json_dict(self, z3):
        d = z3.from_int(6).as_json_dict()
        assert d == {"p": 3, "precision": 2, "digits": [0, 2], "valuation": 1}

    def test_zero_serialization(self, z3):
        d = z3.from_int(0).as_json_dict()
        assert d["digits"] == [0, 0]
        assert d["valuation"] == 2

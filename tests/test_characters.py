import pytest

from eulerlp import (
    DirichletCharacter,
    PadicContext,
    interpolation_check,
    padic_l,
    teichmuller_power,
)

PRIMES = (3, 5, 7, 11, 13)


def all_supported_characters(p, precision=4):
    ctx = PadicContext(p, precision)
    return ctx, [teichmuller_power(t, ctx) for t in range(p - 1)]


class TestTeichmullerPower:
    def test_exponent_zero_is_trivial(self):
        ctx = PadicContext(3, 4)
        chi = teichmuller_power(0, ctx)
        assert chi.conductor == 1
        assert chi(1) == 1
        assert chi(2) == 1

    def test_exponent_one_at_three(self):
        ctx = PadicContext(3, 4)
        chi = teichmuller_power(1, ctx)
        assert chi(1) == 1
        assert chi(2) == ctx.modulus - 1  # omega(2) = -1 in Z_3

    def test_exponent_two_at_five(self):
        ctx = PadicContext(5, 2)
        chi = teichmuller_power(2, ctx)
        assert chi(2) == 24

    def test_exponent_reduced_mod_p_minus_one(self):
        ctx = PadicContext(5, 3)
        assert teichmuller_power(9, ctx).values == teichmuller_power(1, ctx).values
        assert teichmuller_power(-1, ctx).values == teichmuller_power(3, ctx).values


class TestEvaluation:
    def test_period_is_conductor(self):
        ctx = PadicContext(5, 3)
        chi = teichmuller_power(1, ctx)
        for a in range(1, 20):
            assert chi(a) == chi(a + 5)

    def test_vanishes_off_units_of_conductor(self):
        ctx = PadicContext(3, 4)
        chi = teichmuller_power(1, ctx)
        assert chi(3) == 0
        assert chi(0) == 0

    def test_value_at_p_depends_on_conductor(self):
        ctx = PadicContext(3, 4)
        assert teichmuller_power(0, ctx)(3) == 1
        assert teichmuller_power(1, ctx)(3) == 0

    def test_congruent_classes_share_values(self):
        ctx = PadicContext(3, 4)
        chi = teichmuller_power(1, ctx)
        assert chi(5) == chi(2)


class TestInvariants:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_multiplicative(self, p):
        ctx, chars = all_supported_characters(p)
        for chi in chars:
            F = chi.conductor
            for a in range(2 * F):
                for b in range(2 * F):
                    assert chi(a * b) == chi(a) * chi(b) % ctx.modulus

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_values_are_roots_of_unity(self, p):
        ctx, chars = all_supported_characters(p)
        for chi in chars:
            for a in range(chi.conductor if chi.conductor > 1 else 1):
                v = chi(a)
                if v == 0:
                    continue
                assert v % p != 0
                assert pow(v, p - 1, ctx.modulus) == 1

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_chi_of_one(self, p):
        ctx, chars = all_supported_characters(p)
        for chi in chars:
            assert chi(1) == 1

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_conductor_one_iff_identically_one_on_units(self, p):
        ctx = PadicContext(p, 4)
        for t in range(p - 1):
            chi = teichmuller_power(t, ctx)
            all_one = all(chi(a) == 1 for a in range(1, p) if a % p)
            assert (chi.conductor == 1) == all_one


class TestTwist:
    def test_cancelling_twist_gives_trivial(self):
        ctx = PadicContext(3, 4)
        chi = teichmuller_power(1, ctx).twist(-1)
        assert chi.conductor == 1
        assert chi.values == (1,)

    def test_exponents_add_mod_order(self):
        ctx = PadicContext(3, 4)
        assert teichmuller_power(1, ctx).twist(2).values == teichmuller_power(1, ctx).values
        ctx7 = PadicContext(7, 3)
        for t1 in range(6):
            for t2 in range(-6, 7):
                lhs = teichmuller_power(t1, ctx7).twist(t2)
                rhs = teichmuller_power(t1 + t2, ctx7)
                assert lhs.values == rhs.values
                assert lhs.conductor == rhs.conductor


class TestDescriptor:
    def test_wire_forms(self):
        ctx = PadicContext(5, 2)
        assert teichmuller_power(3, ctx).descriptor() == {
            "p": 5,
            "kind": "teichmuller",
            "t": 3,
        }
        assert teichmuller_power(0, ctx).descriptor() == {
            "p": 5,
            "kind": "teichmuller",
            "t": 0,
        }


class TestExponentFixesCharacter:
    """A character is (context, t): nothing else can be set, so its values
    cannot contradict its exponent or its context."""

    @pytest.mark.parametrize("p", PRIMES)
    def test_constructor_is_teichmuller_power(self, p):
        ctx = PadicContext(p, 4)
        for t in range(-2 * (p - 1), 2 * (p - 1) + 1):
            chi = DirichletCharacter(ctx, t)
            assert chi == teichmuller_power(t, ctx), t
            assert hash(chi) == hash(teichmuller_power(t, ctx)), t
            assert DirichletCharacter(ctx, t + p - 1) == chi, t
            assert chi.t == t % (p - 1)

    def test_values_and_conductor_are_not_fields(self):
        ctx = PadicContext(5, 6)
        with pytest.raises(TypeError):
            DirichletCharacter(ctx, 5, teichmuller_power(1, ctx).values, 3)
        with pytest.raises(TypeError):
            DirichletCharacter(ctx, teich_exponent=3)
        with pytest.raises(TypeError):
            DirichletCharacter(ctx, 1, values=teichmuller_power(1, ctx).values)

    def test_exponent_fixes_the_values_read_by_the_checks(self):
        ctx = PadicContext(5, 6)
        assert interpolation_check(2, DirichletCharacter(ctx, 3)).match
        value = padic_l(-1, DirichletCharacter(ctx, 1))
        assert value == ctx.from_int(2)  # (1 - 5) E_1 = 2


class TestValuesAgainstHenselOracle:
    """chi(a) against properties that fix omega(a)^t without computing a
    Teichmuller lift: a residue v mod p^N with v = a^t mod p and
    v^(p-1) = 1 mod p^N is unique, by Hensel's lemma, since x^(p-1) - 1 has
    simple roots mod p."""

    @pytest.mark.parametrize("N", (1, 4, 10))
    @pytest.mark.parametrize("p", PRIMES)
    def test_unit_values(self, p, N):
        ctx = PadicContext(p, N)
        for t in range(p - 1):
            chi = DirichletCharacter(ctx, t)
            for a in range(-p, 2 * p + 1):
                if a % p == 0:
                    continue
                v = chi(a)
                assert 0 <= v < p**N, (t, a)
                assert v % p == pow(a, t, p), (t, a)
                assert pow(v, p - 1, p**N) == 1, (t, a)

    @pytest.mark.parametrize("p", PRIMES)
    def test_value_at_p(self, p):
        ctx = PadicContext(p, 4)
        for t in range(p - 1):
            assert DirichletCharacter(ctx, t)(p) == (1 if t == 0 else 0), t

import pytest

from eulerlp import PadicContext, teichmuller_power


def all_supported_characters(p, precision=4):
    ctx = PadicContext(p, precision)
    return ctx, [teichmuller_power(t, ctx) for t in range(p - 1)]


class TestTeichmullerPower:
    def test_exponent_zero_is_trivial(self):
        ctx = PadicContext(3, 4)
        chi = teichmuller_power(0, ctx)
        assert chi.conductor == 1
        assert chi(1) == ctx.one()
        assert chi(2) == ctx.one()

    def test_exponent_one_at_three(self):
        ctx = PadicContext(3, 4)
        chi = teichmuller_power(1, ctx)
        assert chi(1).residue == 1
        assert chi(2).residue == ctx.modulus - 1  # omega(2) = -1 in Z_3

    def test_exponent_two_at_five(self):
        ctx = PadicContext(5, 2)
        chi = teichmuller_power(2, ctx)
        assert chi(2).residue == 24

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
        assert chi(3).is_zero
        assert chi(0).is_zero

    def test_value_at_p_depends_on_conductor(self):
        ctx = PadicContext(3, 4)
        assert teichmuller_power(0, ctx)(3) == ctx.one()
        assert teichmuller_power(1, ctx)(3).is_zero

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
                    assert chi(a * b) == chi(a) * chi(b)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_values_are_roots_of_unity(self, p):
        ctx, chars = all_supported_characters(p)
        for chi in chars:
            for a in range(chi.conductor if chi.conductor > 1 else 1):
                v = chi(a)
                if v.is_zero:
                    continue
                assert v.valuation == 0
                assert (v ** (p - 1)).residue == 1

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_chi_of_one(self, p):
        ctx, chars = all_supported_characters(p)
        for chi in chars:
            assert chi(1) == ctx.one()

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_conductor_one_iff_identically_one_on_units(self, p):
        ctx = PadicContext(p, 4)
        for t in range(p - 1):
            chi = teichmuller_power(t, ctx)
            all_one = all(chi(a) == ctx.one() for a in range(1, p) if a % p)
            assert (chi.conductor == 1) == all_one


class TestTwist:
    def test_cancelling_twist_gives_trivial(self):
        ctx = PadicContext(3, 4)
        chi = teichmuller_power(1, ctx).twist(-1)
        assert chi.conductor == 1
        assert chi.values == (ctx.one(),)

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

from math import isqrt

import pytest
from conftest import GRID_MIXED, cold_caches, mutated, source_mutant

from eulerlp import (
    DirichletCharacter,
    PadicContext,
    angle,
    interpolation_check,
    padic_l,
    run_grid,
    teichmuller,
    teichmuller_power,
)
from eulerlp import characters, lfunctions
from eulerlp.characters import _primitive_root

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


def odd_primes_below(bound):
    """Odd primes below bound by trial division, independent of the library."""
    return [p for p in range(3, bound, 2) if all(p % d for d in range(3, isqrt(p) + 1, 2))]


def multiplicative_order(g, p):
    """The least k >= 1 with g^k = 1 mod p, by repeated multiplication."""
    x, k = g % p, 1
    while x != 1:
        x, k = x * g % p, k + 1
    return k


class TestTeichmullerTable:
    """The per-context table (zeta^i, ind a) that characters and <a> are
    read from, against the closed forms it replaces in the library:
    teichmuller(a, ctx) = a^(p^(N-1)) and angle(a, ctx) = a / omega(a)."""

    def test_primitive_root_is_the_least_element_of_full_order(self):
        for p in odd_primes_below(2000):
            least = next(g for g in range(2, p) if multiplicative_order(g, p) == p - 1)
            assert _primitive_root(p) == least, p

    @staticmethod
    def _assert_values_are_powers_of_the_lift(ctx):
        lifts = [teichmuller(a, ctx).residue for a in range(1, ctx.p)]
        assert DirichletCharacter(ctx, 0).values == (1,)
        for t in range(1, ctx.p - 1):
            expected = (0,) + tuple(pow(w, t, ctx.modulus) for w in lifts)
            assert DirichletCharacter(ctx, t).values == expected, (ctx, t)

    @pytest.mark.parametrize("N", (1, 3, 10))
    def test_values_below_200(self, N):
        with cold_caches():
            for p in odd_primes_below(200):
                self._assert_values_are_powers_of_the_lift(PadicContext(p, N))

    def test_values_at_1009(self):
        with cold_caches():
            self._assert_values_are_powers_of_the_lift(PadicContext(1009, 2))

    @pytest.mark.parametrize("N", (1, 4))
    def test_series_table_angle(self, N):
        # the table's <a> and <a>^(-1) at every unit a below the summation
        # modulus F, for F = p and for F = 3p, where a and a mod p differ
        for p in odd_primes_below(50):
            ctx = PadicContext(p, N)
            for F in (p, 3 * p):
                table = lfunctions._series_table(F, ctx)
                for a in range(1, F):
                    if a % p:
                        unit = angle(a, ctx).residue
                        expected = (unit, pow(unit, -1, ctx.modulus))
                        assert table[a][1:3] == expected, (p, N, F, a)
                    else:
                        assert table[a] is None


class TestTeichmullerTableMutants:
    """A fault in the table must fail the Hensel oracle and turn at least
    one grid-mixed report to a mismatch, and every report must match again
    once it is undone.

    Which suite sees it depends on the fault.  A wrong g or index gives
    psi(a) = zeta'^(k(a)) with zeta' still a (p-1)-th root of unity, read
    consistently by chi and by <a> = a / psi(a).  Interpolation cannot see
    that: l_p(-n, psi^t) = 2 sum psi(a)^(t-n) z(n, a) for every such psi,
    as theorem6 cannot, since psi(a)^(-s) <a>^(-s) = a^(-s).  kummer can:
    it reads <a> mod p, which is 1 only for psi = omega.  A lift that is
    not a root of unity (one digit short) breaks the exponent arithmetic
    mod p - 1, which interpolation sees."""

    @staticmethod
    def _mismatched_suites():
        return {report.check for report in run_grid(GRID_MIXED) if not report.match}

    @pytest.mark.parametrize(
        "attr, mutant, suite",
        [
            ("_primitive_root", lambda p: _primitive_root(p) ** 2 % p, "kummer"),
            ("_primitive_root", lambda p: 2, "kummer"),  # 2 has order 3 mod 7
            (
                "_teichmuller_table",
                source_mutant(
                    characters._teichmuller_table,
                    "index[pow(g, i, p)] = i",
                    "index[pow(g, i, p)] = i + 1",
                ),
                "kummer",
            ),
            (
                "_teichmuller_table",
                source_mutant(
                    characters._teichmuller_table,
                    "teichmuller(g, ctx).residue",
                    "pow(g, p ** max(ctx.precision - 2, 0), m)",
                ),
                "interpolation",
            ),
        ],
        ids=["g-squared", "2-at-7", "index-off-by-one", "lift-one-digit-short"],
    )
    def test_mutant_is_caught(self, attr, mutant, suite):
        with mutated(characters, attr, mutant):
            with pytest.raises(AssertionError):
                TestValuesAgainstHenselOracle().test_unit_values(7, 4)
            mismatched = self._mismatched_suites()
        assert suite in mismatched, mismatched
        assert not self._mismatched_suites()

"""The library computes on plain int residues and wraps each result once in
a ``PadicNumber``.  The references below are the ``PadicNumber`` expressions
that the residue code replaced; every rewritten function must return the same
residue at the same precision (``PadicNumber`` equality compares context,
residue and precision).  Character values are plain ints, so they are
compared with the reference residues, whose precision must be N."""

import pytest

from eulerlp import (
    PadicContext,
    angle,
    binomial,
    euler_number,
    generalized_euler_number,
    interpolation_check,
    main_congruence_series,
    padic_l,
    padic_partial_zeta_at_neg,
    teichmuller,
    teichmuller_power,
)
from eulerlp.euler import partial_zeta_neg
from eulerlp.reports import padic_report

PRIMES = (3, 5, 7, 11, 13)
PRECISIONS = (1, 4, 10)
CONTEXTS = [PadicContext(p, N) for p in PRIMES for N in PRECISIONS]


def _label(ctx):
    return f"p{ctx.p}-N{ctx.precision}"


def reference_angle(a, ctx):
    return ctx.from_int(a) * teichmuller(a, ctx).inverse()


def reference_character_values(t, ctx):
    if t % (ctx.p - 1) == 0:
        return (ctx.from_int(1),)
    return (ctx.from_int(0),) + tuple(teichmuller(a, ctx) ** t for a in range(1, ctx.p))


def reference_generalized_euler_number(n, chi, ctx):
    f = chi.conductor
    if f == 1:
        return ctx.from_rational(euler_number(n))
    total = sum(
        (chi(a) * ctx.from_rational(partial_zeta_neg(n, a, f)) for a in range(1, f)),
        ctx.from_int(0),
    )
    return 2 * total


def reference_partial_zeta_at_neg(n, a, modulus, ctx):
    return teichmuller(a, ctx) ** (-n) * ctx.from_rational(
        partial_zeta_neg(n, a, modulus)
    )


def reference_interpolation_rhs(n, chi, ctx):
    chi_n = chi.twist(-n)
    factor = ctx.from_int(1) - ctx.from_int(ctx.p) ** n * chi_n(ctx.p)
    return factor * reference_generalized_euler_number(n, chi_n, ctx)


def reference_main_congruence_series(n, r, ctx):
    pn = ctx.from_int(ctx.p * n)
    pn_power = ctx.from_int(1)
    total = ctx.from_int(0)
    for k in range(1, ctx.precision + 1):
        pn_power = pn_power * pn
        chi = teichmuller_power(-(k + r), ctx)
        total = total + ctx.from_int(binomial(-r, k)) * pn_power * padic_l(r + k, chi)
    return -total


def main_congruence_mismatches(ctx):
    """(N, extra, n, r), for N in 1 and the precision of ctx, where the
    series at N + extra digits does not carry N + extra digits or, reduced to
    N digits, is not the reference at N digits."""
    wrong = []
    for digits in sorted({1, ctx.precision}):
        expected_ctx = PadicContext(ctx.p, digits)
        for extra in (0, 2):
            wide = PadicContext(ctx.p, digits + extra)
            for n in range(9):
                for r in (1, 2, 3):
                    value = main_congruence_series(n, r, wide)
                    expected = reference_main_congruence_series(n, r, expected_ctx)
                    if (
                        value.precision != wide.precision
                        or value.reduce(digits).residue != expected.residue
                    ):
                        wrong.append((digits, extra, n, r))
    return wrong


@pytest.mark.parametrize("ctx", CONTEXTS, ids=_label)
class TestResiduesMatchPadicReferences:
    def test_angle(self, ctx):
        for a in range(-2 * ctx.p, 3 * ctx.p):
            if a % ctx.p:
                assert angle(a, ctx) == reference_angle(a, ctx), a

    def test_character_values(self, ctx):
        for t in range(-1, 2 * (ctx.p - 1)):
            reference = reference_character_values(t, ctx)
            assert {v.precision for v in reference} == {ctx.precision}, t
            values = teichmuller_power(t, ctx).values
            assert values == tuple(v.residue for v in reference), t

    def test_generalized_euler_number(self, ctx):
        for t in range(ctx.p - 1):
            chi = teichmuller_power(t, ctx)
            for n in range(9):
                expected = reference_generalized_euler_number(n, chi, ctx)
                assert generalized_euler_number(n, chi) == expected, (t, n)

    def test_partial_zeta_at_neg(self, ctx):
        for modulus in (ctx.p, 3 * ctx.p):
            for a in range(1, modulus):
                if a % ctx.p == 0:
                    continue
                for n in range(1, 9):
                    expected = reference_partial_zeta_at_neg(n, a, modulus, ctx)
                    value = padic_partial_zeta_at_neg(n, a, modulus, ctx)
                    assert value == expected, (modulus, a, n)

    def test_interpolation_rhs(self, ctx):
        for digits in sorted({1, ctx.precision}):
            ctx_d = PadicContext(ctx.p, digits)
            for t in range(ctx.p - 1):
                chi = teichmuller_power(t, ctx_d)
                for n in range(1, 9):
                    report = interpolation_check(n, chi)
                    lhs = padic_l(-n, chi)
                    rhs = reference_interpolation_rhs(n, chi, ctx_d)
                    expected = padic_report("interpolation", report.params, lhs, rhs)
                    assert report == expected, (digits, t, n)

    def test_main_congruence_series(self, ctx):
        assert not main_congruence_mismatches(ctx)


def test_main_congruence_series_sees_a_short_series(short_main_congruence):
    assert main_congruence_mismatches(PadicContext(5, 4))

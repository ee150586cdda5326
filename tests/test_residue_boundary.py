"""The library computes on plain int residues and wraps each result once in
a ``PadicNumber``.  The references below are the ``PadicNumber`` expressions
that the residue code replaced; every rewritten function must return the same
residue at the same precision (``PadicNumber`` equality compares context,
residue and precision).  Character values are plain ints, so they are
compared with the reference residues, whose precision must be N.  Reports
are built from residues too; their references are the ``reduce`` and
``Fraction`` paths they replaced."""

import copy
import pickle
from fractions import Fraction

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
from eulerlp.padic import PadicNumber, _wire_dict
from eulerlp.reports import CongruenceReport, format_rational, padic_report, rational_report

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
    chi_n = teichmuller_power(chi.t - n, chi.context)
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


def reference_digits(x):
    out, r = [], x.residue
    for _ in range(x.precision):
        r, d = divmod(r, x.context.p)
        out.append(d)
    return out


def reference_wire(x):
    return {"p": x.context.p, "precision": x.precision,
            "digits": reference_digits(x), "valuation": x.valuation}


def reference_padic_report(check, params, lhs, rhs):
    digits = lhs.context.precision
    lhs = lhs.reduce(digits)
    rhs = rhs.reduce(digits)
    return CongruenceReport(
        check=check, p=lhs.context.p, params=params,
        lhs=reference_wire(lhs), rhs=reference_wire(rhs), precision=digits,
        match=lhs.residue == rhs.residue, lhs_valuation=lhs.valuation,
    )


def reference_valuation(x):
    if x.residue == 0:
        return x.precision
    v, r = 0, x.residue
    while r % x.context.p == 0:
        r //= x.context.p
        v += 1
    return v


def reference_rational_report(check, params, lhs, rhs):
    lhs, rhs = Fraction(lhs), Fraction(rhs)
    return CongruenceReport(
        check=check, p=None, params=params,
        lhs=f"{lhs.numerator}/{lhs.denominator}", rhs=f"{rhs.numerator}/{rhs.denominator}",
        precision=None, match=lhs == rhs, lhs_valuation=None,
    )


def boundary_residues(ctx):
    """0, multiples of p^k for k up to N + 1, negative residues and residues
    at and past p^N."""
    p, m = ctx.p, ctx.modulus
    values = {0, 1, -1, m - 1, m, m + 1, -m, -m - 1, 2 * m + 3, 7 * m * m + 5}
    values |= {c * p**k for k in range(ctx.precision + 2) for c in (1, -1, p - 1, -(p + 1))}
    return sorted(values)


REPORT_CONTEXTS = [PadicContext(p, N) for p in (3, 5, 7, 13) for N in (1, 4, 10)]


@pytest.mark.parametrize("ctx", REPORT_CONTEXTS, ids=_label)
class TestReportsFromResidues:
    def test_padic_report_matches_the_reduce_path(self, ctx):
        wide = PadicContext(ctx.p, ctx.precision + 3)  # residues up to p^(N+3)
        residues = boundary_residues(ctx)
        matches = set()
        for x in residues:
            lhs = ctx.from_int(x)
            for y in residues:
                for rhs in (ctx.from_int(y), wide.from_int(y)):
                    report = padic_report("check", {"x": x}, lhs, rhs)
                    assert report == reference_padic_report("check", {"x": x}, lhs, rhs)
                    assert report.lhs == lhs.reduce(ctx.precision).as_json_dict()
                    assert report.rhs == rhs.reduce(ctx.precision).as_json_dict()
                    matches.add(report.match)
        assert matches == {True, False}

    def test_lhs_valuation_is_the_valuation(self, ctx):
        for x in boundary_residues(ctx):
            lhs = ctx.from_int(x)
            report = padic_report("check", {}, lhs, lhs)
            assert report.lhs_valuation == lhs.valuation == reference_valuation(lhs), x
            assert report.lhs["valuation"] == report.lhs_valuation

    def test_wire_form_of_any_int_residue(self, ctx):
        for x in boundary_residues(ctx):
            for digits in range(1, ctx.precision + 1):
                value = PadicNumber(ctx, x, digits)
                assert _wire_dict(ctx.p, digits, x) == reference_wire(value), (x, digits)
                assert value.as_json_dict() == reference_wire(value)
                assert value.digits() == reference_digits(value)

    def test_full_precision_residue_is_reduced_mod_the_modulus(self, ctx):
        for x in boundary_residues(ctx):
            for digits in range(1, ctx.precision + 1):
                assert PadicNumber(ctx, x, digits).residue == x % ctx.p**digits


@pytest.mark.parametrize("ctx", [c for c in REPORT_CONTEXTS if c.precision > 1], ids=_label)
def test_a_short_side_raises(ctx):
    # lhs fixes N, so a short lhs is one below its own context's precision;
    # a short rhs is either that or a value of a narrower context
    full, short = ctx.from_int(7), PadicNumber(ctx, 7, ctx.precision - 1)
    with pytest.raises(ValueError):
        padic_report("check", {}, short, full)
    for rhs in (short, PadicContext(ctx.p, ctx.precision - 1).from_int(7)):
        with pytest.raises(ValueError):
            padic_report("check", {}, full, rhs)


RATIONALS = (0, 3, -7, 12, Fraction(3), Fraction(-7), Fraction(3, 4), Fraction(-5, 6),
             Fraction(6, 2), Fraction(-14, 2))


def test_rational_report_matches_the_fraction_path():
    kinds = set()
    for lhs in RATIONALS:
        for rhs in RATIONALS:
            report = rational_report("check", {}, lhs, rhs)
            assert report == reference_rational_report("check", {}, lhs, rhs), (lhs, rhs)
            assert format_rational(lhs) == report.lhs
            kinds.add((type(lhs), type(rhs), report.match))
    # int/int, int/Fraction, Fraction/int and Fraction/Fraction, each both
    # matching and not
    assert len(kinds) == 8


@pytest.mark.parametrize("ctx", CONTEXTS, ids=_label)
def test_context_hash_is_the_hash_of_its_fields(ctx):
    assert hash(ctx) == hash((ctx.p, ctx.precision))
    assert ctx == PadicContext(ctx.p, ctx.precision)
    assert ctx != PadicContext(ctx.p, ctx.precision + 1)
    for clone in (pickle.loads(pickle.dumps(ctx)), copy.deepcopy(ctx)):
        assert clone == ctx and hash(clone) == hash(ctx)
        assert clone.modulus == ctx.modulus

"""The library computes on plain int residues and wraps each result once in
a ``PadicNumber``.  Every such value must carry the residue that oracles.py
computes, at the precision of its context, and every report built from
residues must be the report the oracle prints; character values are plain
ints, compared with the oracle's."""

import copy
import pickle
from fractions import Fraction

import oracles
import pytest

from eulerlp import (
    PadicContext,
    angle,
    generalized_euler_number,
    interpolation_check,
    main_congruence_series,
    padic_partial_zeta_at_neg,
    teichmuller_power,
)
from eulerlp.padic import PadicNumber, _wire_dict
from eulerlp.reports import format_rational, rational_report, residue_report

PRIMES = (3, 5, 7, 11, 13)
PRECISIONS = (1, 4, 10)
CONTEXTS = [PadicContext(p, N) for p in PRIMES for N in PRECISIONS]


def _label(ctx):
    return f"p{ctx.p}-N{ctx.precision}"


def main_congruence_mismatches(ctx):
    """(N, extra, n, r), for N in 1 and the precision of ctx, where the
    series at N + extra digits does not carry N + extra digits or, reduced to
    N digits, is not the oracle's at N digits."""
    wrong = []
    for digits in sorted({1, ctx.precision}):
        for extra in (0, 2):
            wide = PadicContext(ctx.p, digits + extra)
            for n in range(9):
                for r in (1, 2, 3):
                    value = main_congruence_series(n, r, wide)
                    expected = oracles.main_congruence_series(ctx.p, digits, n, r)
                    if (
                        value.precision != wide.precision
                        or value.reduce(digits).residue != expected
                    ):
                        wrong.append((digits, extra, n, r))
    return wrong


@pytest.mark.parametrize("ctx", CONTEXTS, ids=_label)
class TestResiduesMatchTheOracle:
    def test_angle(self, ctx):
        for a in range(-2 * ctx.p, 3 * ctx.p):
            if a % ctx.p:
                value = angle(a, ctx)
                assert value.residue == oracles.angle(ctx.p, ctx.precision, a), a
                assert value.precision == ctx.precision

    def test_character_values(self, ctx):
        for t in range(-1, 2 * (ctx.p - 1)):
            values = teichmuller_power(t, ctx).values
            assert values == oracles.character_values(ctx.p, ctx.precision, t), t

    def test_generalized_euler_number(self, ctx):
        for t in range(ctx.p - 1):
            chi = teichmuller_power(t, ctx)
            for n in range(9):
                value = generalized_euler_number(n, chi)
                expected = oracles.generalized_euler_number(ctx.p, ctx.precision, n, t)
                assert value.residue == expected, (t, n)
                assert value.precision == ctx.precision

    def test_partial_zeta_at_neg(self, ctx):
        # the oracle's series at s = -n: the terms j > n vanish, so it is
        # the closed form omega^(-n)(a) (-1)^a (F^n / 2) E_n(a/F)
        for modulus in (ctx.p, 3 * ctx.p):
            for n in range(1, 9):
                row = oracles.partial_zeta_row(ctx.p, ctx.precision, -n, modulus)
                for a in range(1, modulus):
                    if a % ctx.p == 0:
                        continue
                    value = padic_partial_zeta_at_neg(n, a, modulus, ctx)
                    assert value.residue == row[a], (modulus, a, n)
                    assert value.precision == ctx.precision

    def test_interpolation_rhs(self, ctx):
        for digits in sorted({1, ctx.precision}):
            ctx_d = PadicContext(ctx.p, digits)
            for t in range(ctx.p - 1):
                for n in range(1, 9):
                    report = interpolation_check(n, teichmuller_power(t, ctx_d))
                    lhs = oracles.l_p(ctx.p, digits, -n, t)
                    rhs = oracles.interpolation_rhs(ctx.p, digits, n, t)
                    expected = oracles.padic_report(
                        "interpolation", report.params, ctx.p, digits, lhs, rhs)
                    assert report.as_dict() == expected, (digits, t, n)

    def test_main_congruence_series(self, ctx):
        assert not main_congruence_mismatches(ctx)


def test_main_congruence_series_sees_a_short_series(short_main_congruence):
    assert main_congruence_mismatches(PadicContext(5, 4))


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
    def test_residue_report_matches_the_reduce_path(self, ctx):
        wide = PadicContext(ctx.p, ctx.precision + 3)  # residues up to p^(N+3)
        residues = boundary_residues(ctx)
        matches = set()
        for x in residues:
            lhs = ctx.from_int(x)
            for y in residues:
                for rhs in (ctx.from_int(y), wide.from_int(y)):
                    report = residue_report("check", {"x": x}, ctx, x, rhs.residue)
                    expected = oracles.padic_report(
                        "check", {"x": x}, ctx.p, ctx.precision, x, rhs.residue)
                    assert report.as_dict() == expected
                    assert report.lhs == lhs.reduce(ctx.precision).as_json_dict()
                    assert report.rhs == rhs.reduce(ctx.precision).as_json_dict()
                    matches.add(report.match)
        assert matches == {True, False}

    def test_lhs_valuation_is_the_valuation(self, ctx):
        for x in boundary_residues(ctx):
            report = residue_report("check", {}, ctx, x, x)
            expected = oracles.wire(ctx.p, ctx.precision, x)["valuation"]
            assert report.lhs_valuation == ctx.from_int(x).valuation == expected, x
            assert report.lhs["valuation"] == report.lhs_valuation

    def test_wire_form_of_any_int_residue(self, ctx):
        for x in boundary_residues(ctx):
            for digits in range(1, ctx.precision + 1):
                value, expected = PadicNumber(ctx, x, digits), oracles.wire(ctx.p, digits, x)
                assert _wire_dict(ctx.p, digits, x) == expected, (x, digits)
                assert value.as_json_dict() == expected
                assert value.digits() == expected["digits"]

    def test_full_precision_residue_is_reduced_mod_the_modulus(self, ctx):
        for x in boundary_residues(ctx):
            for digits in range(1, ctx.precision + 1):
                assert PadicNumber(ctx, x, digits).residue == x % ctx.p**digits


RATIONALS = (0, 3, -7, 12, Fraction(3), Fraction(-7), Fraction(3, 4), Fraction(-5, 6),
             Fraction(6, 2), Fraction(-14, 2))


def test_rational_report_matches_the_fraction_path():
    kinds = set()
    for lhs in RATIONALS:
        for rhs in RATIONALS:
            report = rational_report("check", {}, lhs, rhs)
            assert report.as_dict() == oracles.rational_report("check", {}, lhs, rhs), (lhs, rhs)
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

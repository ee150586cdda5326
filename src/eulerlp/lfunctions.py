"""Generalized Euler numbers, p-adic partial zeta values, and the p-adic
l-function at integer arguments.

The p-adic partial zeta is the series

    (-1)^a / 2 * <a>^{-s} * sum_{j >= 0} C(-s, j) (F/a)^j E_j

for an odd multiple F of p and a unit a, and the l-function is

    l_p(s, chi) = 2 sum_{a=1, (a,p)=1}^{F} chi(a) H_p(s, a | F).

Because p divides F and every E_j is p-integral, the j-th series term has
valuation at least j, so truncating at the target precision is exact at
that precision.  Only integer s is supported: unit powers <a>^{-s} are then
exact and no Mahler-series precision bookkeeping is needed.

Both series run on plain int residues mod p^M.  For each (p, F, M, J),
with J the series cutoff, a table holding (-1)^a / 2, <a> and the row
(F/a)^j E_j (j < J) for every unit a is built once; a value is then one
dot product with the binomial row C(-s, j).  ``PadicNumber`` is only the
type of the results.  The series is Washington's ("p-adic L-functions and
sums of powers", J. Number Theory 69, 1998), adapted to Euler numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .characters import DirichletCharacter, teichmuller_power
from .euler import euler_number, partial_zeta_neg
from .padic import PadicContext, PadicNumber, angle, binomial, teichmuller
from .reports import CongruenceReport, padic_report


@dataclass(frozen=True)
class TruncationPlan:
    """Target precision M and series cutoff J for the defining series.

    J >= M suffices for results exact mod p^M, since term j carries
    valuation >= j.  The default is the tight cutoff J = M; a larger J must
    never change any reported residue.
    """

    target_precision: int
    series_cutoff: int | None = None

    def __post_init__(self):
        if self.target_precision < 1:
            raise ValueError("target_precision must be >= 1")
        if self.series_cutoff is None:
            object.__setattr__(self, "series_cutoff", self.target_precision)
        if self.series_cutoff < self.target_precision:
            raise ValueError("series_cutoff must be >= target_precision")


def generalized_euler_number(n: int, chi: DirichletCharacter) -> PadicNumber:
    """E_{n,chi} = f^n sum_{a=0}^{f-1} chi(a) (-1)^a E_n(a/f), f = conductor,
    in chi's context.

    For conductor 1 this is E_n.  For conductor p, chi(0) = 0 and each
    remaining term is twice the partial zeta value at -n, whose
    denominator is a power of two, so the sum embeds in Z_p for odd p.
    """
    ctx, f = chi.context, chi.conductor
    if f == 1:
        return ctx.from_rational(euler_number(n))
    total = sum(
        chi(a) * ctx.from_rational(partial_zeta_neg(n, a, f)).residue
        for a in range(1, f)
    )
    return ctx.from_int(2 * total)


def _check_class_args(a: int, modulus: int, ctx: PadicContext) -> None:
    if modulus % ctx.p != 0 or modulus % 2 == 0:
        raise ValueError("modulus must be an odd multiple of p")
    if not 0 < a < modulus:
        raise ValueError("need 0 < a < modulus")
    if a % ctx.p == 0:
        raise ValueError("a must be a unit mod p")


def _check_plan(ctx: PadicContext, plan: TruncationPlan) -> None:
    if plan.target_precision > ctx.precision:
        raise ValueError("plan wants more digits than the context carries")


@lru_cache(maxsize=None)
def _series_table(
    p: int, modulus: int, digits: int, cutoff: int
) -> tuple[tuple[int, int, tuple[int, ...]] | None, ...]:
    """Indexed by a < modulus, for every unit a: the residues mod p^digits
    of (-1)^a / 2, of <a>, and of (modulus/a)^j E_j for j < cutoff.

    Keyed by the target digits, not by any context's precision: reducing
    mod p^digits commutes with every ring operation of the series, and the
    Teichmuller lift mod p^digits is the reduction of any longer lift.
    """
    ctx = PadicContext(p, digits)
    m = ctx.modulus
    euler = [ctx.from_rational(euler_number(j)).residue for j in range(cutoff)]
    table = [None] * modulus
    for a in range(1, modulus):
        if a % p == 0:
            continue
        ratio = modulus * pow(a, -1, m)
        row, power = [], 1
        for e in euler:
            row.append(power * e % m)
            power = power * ratio % m
        half = ctx.from_rational(Fraction(-1 if a % 2 else 1, 2)).residue
        table[a] = (half, angle(a, ctx).residue, tuple(row))
    return tuple(table)


@lru_cache(maxsize=None)
def _binomial_row(s: int, cutoff: int) -> tuple[int, ...]:
    """C(-s, j) for j < cutoff."""
    return tuple(binomial(-s, j) for j in range(cutoff))


def _partial_zeta_residue(
    s: int, entry: tuple[int, int, tuple[int, ...]], binomials: tuple[int, ...], m: int
) -> int:
    """(-1)^a / 2 * <a>^{-s} * sum_j C(-s, j) (modulus/a)^j E_j mod m, from
    one row of :func:`_series_table`."""
    half, unit, row = entry
    return half * pow(unit, -s, m) * sum(map(mul, binomials, row)) % m


def padic_partial_zeta(
    s: int, a: int, modulus: int, ctx: PadicContext, plan: TruncationPlan
) -> PadicNumber:
    """Series evaluation of the p-adic partial zeta H_p(s, a | modulus),
    correct mod p^target_precision."""
    _check_class_args(a, modulus, ctx)
    _check_plan(ctx, plan)
    digits, cutoff = plan.target_precision, plan.series_cutoff
    entry = _series_table(ctx.p, modulus, digits, cutoff)[a]
    residue = _partial_zeta_residue(s, entry, _binomial_row(s, cutoff), ctx.p**digits)
    return PadicNumber(ctx, residue, digits)


def padic_partial_zeta_at_neg(
    n: int, a: int, modulus: int, ctx: PadicContext
) -> PadicNumber:
    """Closed form at s = -n: omega(a)^{-n} times the exact rational partial
    zeta value (-1)^a (modulus^n / 2) E_n(a/modulus), at full precision."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_class_args(a, modulus, ctx)
    lift = pow(teichmuller(a, ctx).residue, -n, ctx.modulus)
    value = ctx.from_rational(partial_zeta_neg(n, a, modulus))
    return ctx.from_int(lift * value.residue)


def padic_l(s: int, chi: DirichletCharacter, plan: TruncationPlan) -> PadicNumber:
    """l_p(s, chi) = 2 sum over units a mod p of chi(a) H_p(s, a | p), in
    chi's context.

    The summation modulus is p, the modulus of every Teichmuller power.
    """
    ctx = chi.context
    _check_plan(ctx, plan)
    p, digits, cutoff = ctx.p, plan.target_precision, plan.series_cutoff
    m = p**digits
    table = _series_table(p, p, digits, cutoff)
    binomials = _binomial_row(s, cutoff)
    total = sum(
        chi(a) * _partial_zeta_residue(s, table[a], binomials, m)
        for a in range(1, p)
    )
    return PadicNumber(ctx, 2 * total, digits)


def series_closed_check(
    n: int, a: int, ctx: PadicContext, *, margin: int = 0
) -> CongruenceReport:
    """Series evaluation at s = -n against the closed form, mod p^N with N
    the precision of ctx."""
    digits = ctx.precision
    plan = TruncationPlan(digits, digits + margin)
    lhs = padic_partial_zeta(-n, a, ctx.p, ctx, plan)
    rhs = padic_partial_zeta_at_neg(n, a, ctx.p, ctx)
    params = {"p": ctx.p, "n": n, "a": a, "F": ctx.p, "M": digits}
    return padic_report("series_closed", params, lhs, rhs, digits)


def interpolation_check(
    n: int, chi: DirichletCharacter, *, margin: int = 0
) -> CongruenceReport:
    """Compare l_p(-n, chi) against (1 - p^n chi_n(p)) E_{n, chi_n} mod p^N,
    where chi_n is chi twisted by omega^{-n} and N is the precision of chi's
    context.

    A mismatch is a report outcome, not an exception.  chi_n(p) is 1 for
    conductor 1 and 0 otherwise, which is exactly what makes the factor
    collapse correctly in both regimes.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ctx = chi.context
    digits = ctx.precision
    lhs = padic_l(-n, chi, TruncationPlan(digits, digits + margin))
    chi_n = chi.twist(-n)
    factor = 1 - ctx.p**n * chi_n(ctx.p)
    rhs = ctx.from_int(factor * generalized_euler_number(n, chi_n).residue)
    params = {"p": ctx.p, "n": n, "t": chi.t, "M": digits}
    return padic_report("interpolation", params, lhs, rhs, digits)


def kummer_check(
    k: int, t: int, ctx: PadicContext, k2: int | None = None, *, margin: int = 0
) -> CongruenceReport:
    """l_p(k, w^t) against l_p(k2, w^t) mod p, for t = 0 mod p-1.

    k2 defaults to k + p; any pair of arguments may be supplied, since for
    such t the function is constant mod p.
    """
    p = ctx.p
    if t % (p - 1) != 0:
        raise ValueError("the congruence needs t = 0 mod p-1")
    if k2 is None:
        k2 = k + p
    chi = teichmuller_power(t, ctx)
    plan = TruncationPlan(1, 1 + margin)
    lhs = padic_l(k, chi, plan)
    rhs = padic_l(k2, chi, plan)
    params = {"p": p, "k": k, "k2": k2, "t": t, "M": 1}
    return padic_report("kummer", params, lhs, rhs, 1)

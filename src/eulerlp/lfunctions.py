"""Generalized Euler numbers, p-adic partial zeta values, and the p-adic
l-function at integer arguments.

The p-adic partial zeta is the series

    (-1)^a / 2 * <a>^{-s} * sum_{j >= 0} C(-s, j) (F/a)^j E_j

for an odd multiple F of p and a unit a, and the l-function is

    l_p(s, chi) = 2 sum_{a=1, (a,p)=1}^{F} chi(a) H_p(s, a | F).

Because p divides F and every E_j is p-integral, the j-th series term has
valuation at least j, so truncating after N terms is exact mod p^N.  Every
value is computed mod p^N, with N the precision of its context, from
exactly N series terms.  Only integer s is supported: unit powers
<a>^{-s} are then exact and no Mahler-series precision bookkeeping is
needed.

Each value has one core on plain int residues mod p^N, at the reduced
exponent t of chi = w^t: ``_l_residue``, ``_euler_residue`` and
``_interpolation_report``; the public functions read chi's exponent and
call them, and only they return ``PadicNumber``.  For each (F, context), a
table holding (-1)^a / 2, <a>, <a>^(-1) and the row (F/a)^j E_j (j < N)
for every unit a is built once; a partial zeta value is then one dot
product with the binomial row C(-s, j).  The exact partial zeta values at
-n, (-1)^a (F^n / 2) E_n(a/F), are embedded once per (n, F, context) in
``_partial_zeta_residues``.  The series is Washington's ("p-adic
L-functions and sums of powers", J. Number Theory 69, 1998), adapted to
Euler numbers.
"""

from functools import lru_cache
from operator import mul

from .characters import DirichletCharacter, _values
from .euler import _euler_form, _euler_parts
from .padic import PadicContext, PadicNumber, binomial
from .reports import CongruenceReport, residue_report


def generalized_euler_number(n: int, chi: DirichletCharacter) -> PadicNumber:
    """E_{n,chi} in chi's context: :func:`_euler_residue` at chi's exponent."""
    return chi.context.from_int(_euler_residue(n, chi.t, chi.context))


def _euler_residue(n: int, t: int, ctx: PadicContext) -> int:
    """An int congruent mod p^N, N the precision of ctx, to E_{n,chi} =
    f^n sum_{a=0}^{f-1} chi(a) (-1)^a E_n(a/f), chi = w^t with t reduced mod
    p-1 and f its conductor.  For conductor 1 (t = 0) this is E_n.  For
    conductor p, chi(0) = 0 and each remaining term is twice the partial zeta
    value at -n, whose denominator is a power of two, so the sum embeds in Z_p."""
    if t == 0:
        num, den = _euler_parts(n)  # den a power of two, a unit mod p
        return num * pow(den, -1, ctx.modulus)
    return 2 * sum(map(mul, _values(t, ctx), _partial_zeta_residues(n, ctx.p, ctx)))


@lru_cache(maxsize=None)
def _partial_zeta_residues(n: int, modulus: int, ctx: PadicContext) -> tuple[int, ...]:
    """Indexed by a < modulus: the partial zeta value at -n,
    (-1)^a H(n, a, modulus) / 2^(n+1) exactly on ints, mod p^N for a >= 1,
    and 0 at a = 0, where every character of conductor p vanishes."""
    m, scale = ctx.modulus, pow(2, -n - 1, ctx.modulus)
    return (0,) + tuple(
        (-1) ** a * _euler_form(n, a, modulus) * scale % m for a in range(1, modulus)
    )


def _check_class_args(a: int, modulus: int, ctx: PadicContext) -> None:
    if modulus % ctx.p != 0 or modulus % 2 == 0:
        raise ValueError("modulus must be an odd multiple of p")
    if not 0 < a < modulus:
        raise ValueError("need 0 < a < modulus")
    if a % ctx.p == 0:
        raise ValueError("a must be a unit mod p")


@lru_cache(maxsize=None)
def _series_table(
    modulus: int, ctx: PadicContext
) -> tuple[tuple[int, int, int, tuple[int, ...]] | None, ...]:
    """Indexed by a < modulus, for every unit a: the residues mod p^N of
    (-1)^a / 2, of <a> = a omega^(-1)(a) and <a>^(-1) = a^(-1) omega(a), with
    omega^(+-1) read by exponent from the context's Teichmuller table, and
    of (modulus/a)^j E_j for j < N, N the precision of ctx."""
    p, m, half = ctx.p, ctx.modulus, (ctx.modulus + 1) // 2  # 1/2 mod m
    omega, inverse = _values(1, ctx), _values(-1 % (p - 1), ctx)
    parts = map(_euler_parts, range(ctx.precision))  # each den a power of two
    euler = [num * pow(den, -1, m) % m for num, den in parts]
    table = [None] * modulus
    for a in range(1, modulus):
        if a % p == 0:
            continue
        a_inverse = pow(a, -1, m)
        ratio = modulus * a_inverse
        row, power = [], 1
        for e in euler:
            row.append(power * e % m)
            power = power * ratio % m
        unit, unit_inverse = a * inverse[a % p] % m, a_inverse * omega[a % p] % m
        table[a] = (m - half if a % 2 else half, unit, unit_inverse, tuple(row))
    return tuple(table)


def _binomial_row(s: int, terms: int) -> tuple[int, ...]:
    """C(-s, j) for j < terms."""
    return tuple(binomial(-s, j) for j in range(terms))


def _partial_zeta_residue(
    s: int, entry: tuple[int, int, int, tuple[int, ...]], binomials: tuple[int, ...], m: int
) -> int:
    """(-1)^a / 2 * <a>^{-s} * sum_j C(-s, j) (modulus/a)^j E_j mod m, from
    one row of :func:`_series_table`; <a>^{-s} raises <a> or its stored
    inverse to a non-negative power, so no value takes a modular inverse."""
    half, unit, unit_inverse, row = entry
    power = pow(unit_inverse, s, m) if s > 0 else pow(unit, -s, m)
    return half * power * sum(map(mul, binomials, row)) % m


def padic_partial_zeta(s: int, a: int, modulus: int, ctx: PadicContext) -> PadicNumber:
    """Series evaluation of the p-adic partial zeta H_p(s, a | modulus) mod
    p^N, with N the precision of ctx, from N terms."""
    _check_class_args(a, modulus, ctx)
    entry = _series_table(modulus, ctx)[a]
    binomials = _binomial_row(s, ctx.precision)
    return ctx.from_int(_partial_zeta_residue(s, entry, binomials, ctx.modulus))


def padic_partial_zeta_at_neg(n: int, a: int, modulus: int, ctx: PadicContext) -> PadicNumber:
    """Closed form at s = -n: omega^(-n)(a), read from the context's one
    Teichmuller table, times the exact partial zeta value
    (-1)^a (modulus^n / 2) E_n(a/modulus), at full precision."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_class_args(a, modulus, ctx)
    value = _partial_zeta_residues(n, modulus, ctx)[a]
    return ctx.from_int(DirichletCharacter(ctx, -n)(a) * value)


@lru_cache(maxsize=None)
def _l_series_row(s: int, ctx: PadicContext) -> tuple[int, ...]:
    """Indexed by a < p: the residue of H_p(s, a | p) in ctx for a >= 1,
    and 0 at a = 0, where chi(0) = 0 for conductor p."""
    table = _series_table(ctx.p, ctx)
    binomials, m = _binomial_row(s, ctx.precision), ctx.modulus
    return (0,) + tuple(
        _partial_zeta_residue(s, table[a], binomials, m) for a in range(1, ctx.p)
    )


def padic_l(s: int, chi: DirichletCharacter) -> PadicNumber:
    """l_p(s, chi) in chi's context: :func:`_l_residue` at chi's exponent."""
    return chi.context.from_int(_l_residue(s, chi.t, chi.context))


def _l_residue(s: int, t: int, ctx: PadicContext) -> int:
    """l_p(s, w^t) = 2 sum over units a mod p of w^t(a) H_p(s, a | p) mod
    p^N, t reduced mod p-1 and N the precision of ctx, from N terms: twice
    ``characters._values(t, ctx)`` dotted with the row ``_l_series_row(s,
    ctx)`` that every character shares, or twice the row's sum at t = 0
    (conductor 1, values (1,)).  ``harness._diagonal_l`` holds repeated values.
    """
    row = _l_series_row(s, ctx)
    return 2 * (sum(map(mul, _values(t, ctx), row)) if t else sum(row)) % ctx.modulus


def series_closed_check(n: int, a: int, ctx: PadicContext) -> CongruenceReport:
    """Series evaluation at s = -n against the closed form, mod p^N with N
    the precision of ctx."""
    lhs = padic_partial_zeta(-n, a, ctx.p, ctx).residue
    rhs = padic_partial_zeta_at_neg(n, a, ctx.p, ctx).residue
    params = {"p": ctx.p, "n": n, "a": a, "F": ctx.p, "M": ctx.precision}
    return residue_report("series_closed", params, ctx, lhs, rhs)


def interpolation_check(n: int, chi: DirichletCharacter) -> CongruenceReport:
    """The "interpolation" report of chi: :func:`_interpolation_report`."""
    return _interpolation_report(n, chi.t, chi.context)


def _interpolation_report(n: int, t: int, ctx: PadicContext) -> CongruenceReport:
    """l_p(-n, chi) against (1 - p^n chi_n(p)) E_{n, chi_n} mod p^N, N the
    precision of ctx, for chi = w^t with t reduced mod p-1 and chi_n = w^u,
    u = (t - n) mod p-1, chi twisted by w^(-n).  A mismatch is a report
    outcome, not an exception.  chi_n(p) is 1 for conductor 1 (u = 0) and 0
    otherwise, which is exactly what makes the factor collapse correctly in
    both regimes."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p, u = ctx.p, (t - n) % (ctx.p - 1)
    rhs = (1 - p**n if u == 0 else 1) * _euler_residue(n, u, ctx)
    params = {"p": p, "n": n, "t": t, "M": ctx.precision}
    return residue_report("interpolation", params, ctx, _l_residue(-n, t, ctx), rhs)


def kummer_check(k: int, t: int, ctx: PadicContext, k2: int | None = None) -> CongruenceReport:
    """l_p(k, w^t) against l_p(k2, w^t) mod p, for t = 0 mod p-1 (so w^t = w^0),
    both from ctx's own series rows, reported in 1 digit.  k2 defaults to k + p;
    any pair may be given, since for such t the function is constant mod p."""
    p = ctx.p
    if t % (p - 1) != 0:
        raise ValueError("the congruence needs t = 0 mod p-1")
    k2 = k + p if k2 is None else k2
    params = {"p": p, "k": k, "k2": k2, "t": 0, "M": 1}
    return residue_report("kummer", params, PadicContext(p, 1), _l_residue(k, 0, ctx),
                          _l_residue(k2, 0, ctx))

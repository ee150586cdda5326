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

Each value has one core on plain int residues mod p^N: ``_l_residue`` and
``_euler_residue``, which take chi = w^t as its reduced exponent t, and
``_closed_residue``; the public functions call them, and only they return
``PadicNumber``.  This module gives values only: every report is built in
``harness``, next to ``CHECKS``.  Every library module calls the functions
of the others through the module, as this one reads ``euler._euler_parts``
(through ``_euler_mod``) and ``characters._values``, so a fault installed
where a function is defined reaches every caller.  For each (F,
context), a table holding (-1)^a / 2, <a>, <a>^(-1) and the row (F/a)^j E_j
(j < N) for every unit a is built once.  One cached row per (s, F,
context), ``_l_series_row``, gives every series value: its entry a is
H_p(s, a | F), one dot product of a's table row with the binomial row
C(-s, j), and l_p is twice a character's dot product with the F = p row.
The exact partial zeta values at -n, (-1)^a (F^n / 2) E_n(a/F), are
embedded once per (n, F, context) in ``_partial_zeta_residues``.  The
series is Washington's ("p-adic L-functions and sums of powers", J. Number
Theory 69, 1998), adapted to Euler numbers.
"""

from functools import lru_cache
from operator import mul

from . import characters, euler, padic
from .characters import DirichletCharacter
from .padic import PadicContext, PadicNumber


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
        return _euler_mod(n, ctx.modulus)
    return 2 * sum(map(mul, characters._values(t, ctx), _partial_zeta_residues(n, ctx.p, ctx)))


def _euler_mod(n: int, m: int) -> int:
    """E_n mod m, for m odd: E_n's denominator is a power of two, a unit mod m.
    The series table and E_{n,chi} at conductor 1 read E_n only through it."""
    num, den = euler._euler_parts(n)
    return num * pow(den, -1, m) % m


@lru_cache(maxsize=None)
def _partial_zeta_residues(n: int, modulus: int, ctx: PadicContext) -> tuple[int, ...]:
    """Indexed by a < modulus: the partial zeta value at -n,
    (-1)^a H(n, a, modulus) / 2^(n+1) exactly on ints, mod p^N for a >= 1,
    and 0 at a = 0, where every character of conductor p vanishes."""
    m, scale = ctx.modulus, pow(2, -n - 1, ctx.modulus)
    return (0,) + tuple(
        (-1) ** a * euler._euler_form(n, a, modulus) * scale % m for a in range(1, modulus)
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
    omega, inverse = characters._values(1, ctx), characters._values(-1 % (p - 1), ctx)
    numbers = [_euler_mod(j, m) for j in range(ctx.precision)]
    table = [None] * modulus
    for a in range(1, modulus):
        if a % p == 0:
            continue
        a_inverse = pow(a, -1, m)
        ratio = modulus * a_inverse
        row, power = [], 1
        for e in numbers:
            row.append(power * e % m)
            power = power * ratio % m
        unit, unit_inverse = a * inverse[a % p] % m, a_inverse * omega[a % p] % m
        table[a] = (m - half if a % 2 else half, unit, unit_inverse, tuple(row))
    return tuple(table)


def _binomial_row(s: int, terms: int) -> tuple[int, ...]:
    """C(-s, j) for j < terms."""
    return tuple(padic.binomial(-s, j) for j in range(terms))


def padic_partial_zeta(s: int, a: int, modulus: int, ctx: PadicContext) -> PadicNumber:
    """The p-adic partial zeta H_p(s, a | modulus) mod p^N, N the precision
    of ctx, from N series terms: entry a of :func:`_l_series_row`."""
    _check_class_args(a, modulus, ctx)
    return ctx.from_int(_l_series_row(s, modulus, ctx)[a])


def padic_partial_zeta_at_neg(n: int, a: int, modulus: int, ctx: PadicContext) -> PadicNumber:
    """Closed form at s = -n: :func:`_closed_residue`, at full precision."""
    return ctx.from_int(_closed_residue(n, a, modulus, ctx))


def _closed_residue(n: int, a: int, modulus: int, ctx: PadicContext) -> int:
    """omega^(-n)(a), read by exponent from the context's one Teichmuller
    table, times the exact partial zeta value (-1)^a (modulus^n / 2)
    E_n(a/modulus), mod p^N."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_class_args(a, modulus, ctx)
    omega = characters._values(-n % (ctx.p - 1), ctx)  # (1,) when omega^(-n) has conductor 1
    return omega[a % len(omega)] * _partial_zeta_residues(n, modulus, ctx)[a] % ctx.modulus


@lru_cache(maxsize=None)
def _l_series_row(s: int, modulus: int, ctx: PadicContext) -> tuple[int, ...]:
    """Indexed by a < modulus: H_p(s, a | modulus) mod p^N in ctx at every
    unit a, from a's entry of :func:`_series_table`, and 0 at every other a,
    where chi(a) = 0 for conductor p.  <a>^{-s} raises <a> or its stored
    inverse to a non-negative power, so no value takes a modular inverse."""
    binomials, m = _binomial_row(s, ctx.precision), ctx.modulus
    row = [0] * modulus
    for a, entry in enumerate(_series_table(modulus, ctx)):
        if entry:
            half, unit, unit_inverse, terms = entry
            power = pow(unit_inverse, s, m) if s > 0 else pow(unit, -s, m)
            row[a] = half * power * sum(map(mul, binomials, terms)) % m
    return tuple(row)


def padic_l(s: int, chi: DirichletCharacter) -> PadicNumber:
    """l_p(s, chi) in chi's context: :func:`_l_residue` at chi's exponent."""
    return chi.context.from_int(_l_residue(s, chi.t, chi.context))


def _l_residue(s: int, t: int, ctx: PadicContext) -> int:
    """l_p(s, w^t) = 2 sum over units a mod p of w^t(a) H_p(s, a | p) mod
    p^N, t reduced mod p-1 and N the precision of ctx, from N terms: twice
    ``characters._values(t, ctx)`` dotted with the row ``_l_series_row(s,
    p, ctx)`` that every character shares, or twice the row's sum at t = 0
    (conductor 1, values (1,)).  ``harness._diagonal_l`` holds repeated values.
    """
    row = _l_series_row(s, ctx.p, ctx)
    return 2 * (sum(map(mul, characters._values(t, ctx), row)) if t else sum(row)) % ctx.modulus


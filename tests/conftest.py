"""Shared test oracles and helpers.  The oracles are kept independent of the
library code; ``library_caches``, ``clear_library_caches`` and the two
truncation mutants ``short_l_series`` and ``short_main_congruence`` are the
only helpers that touch it."""

import sys
from fractions import Fraction
from math import comb

import pytest


def library_caches():
    """Every functools.lru_cache bound in an imported eulerlp module, once
    each, keyed by the module and name of the function it wraps."""
    caches = {}
    for name, module in list(sys.modules.items()):
        if name == "eulerlp" or name.startswith("eulerlp."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[f"{value.__module__}.{value.__qualname__}"] = value
    return caches


def clear_library_caches():
    """cache_clear() every cache of :func:`library_caches`.  A mutant test
    calls this before patching and again after ``monkeypatch.undo()``, so
    that no cached value can hide the mutant or carry it on into later
    tests."""
    for cache in library_caches().values():
        cache.cache_clear()


def leading_digits(report, digits):
    """The lhs and rhs digits of a p-adic report below p^digits, and its
    match flag: what a report at more digits, reduced to digits, must give."""
    return report.lhs["digits"][:digits], report.rhs["digits"][:digits], report.match


def _mutant(monkeypatch, module, name, replacement):
    clear_library_caches()
    monkeypatch.setattr(module, name, replacement)
    yield
    monkeypatch.undo()
    clear_library_caches()


@pytest.fixture
def short_l_series(monkeypatch):
    """Every partial zeta and l-series sums one term short: the last entry
    of ``lfunctions._binomial_row`` is 0, so a value mod p^N drops its
    j = N - 1 term."""
    from eulerlp import lfunctions

    original = lfunctions._binomial_row

    def mutant(s, terms):
        return original(s, terms)[:-1] + (0,)

    yield from _mutant(monkeypatch, lfunctions, "_binomial_row", mutant)


@pytest.fixture
def short_main_congruence(monkeypatch):
    """The main congruence series stops before s = r + k reaches N: its
    diagonal l-values are 0 from s = N on, so it drops every k >= N - r.
    At even N the one term it drops at r = 1, k = N - 1, is 0 mod p^N
    anyway: l_p(s, w^(-s)) = sum_{0<a<p} (-1)^a a^(-s) mod p, and at even s
    the classes a and p - a cancel, so there only r >= 2 reports see it.
    ``short_l_series`` cannot stand in: each l-value is multiplied by (pn)^k
    with k >= 1, so its last digit never reaches the residue."""
    from eulerlp import harness

    original = harness._diagonal_l

    def mutant(s, ctx):
        return 0 if s >= ctx.precision else original(s, ctx)

    yield from _mutant(monkeypatch, harness, "_diagonal_l", mutant)


def bernoulli_numbers(nmax):
    """B_0..B_nmax with B_1 = -1/2, from the defining recurrence
    sum_{k=0}^{m-1} C(m+1, k) B_k = -(m+1) B_m for m >= 1."""
    values = [Fraction(1)]
    for m in range(1, nmax + 1):
        values.append(-sum(comb(m + 1, k) * values[k] for k in range(m)) / (m + 1))
    return values


def euler_numbers_by_recurrence(nmax):
    """E_0..E_nmax from E_0 = 1 and E_n = -(1/2) sum_{k=0}^{n-1} C(n, k) E_k,
    which multiplying 2 / (e^t + 1) by e^t + 1 forces: the exact Fraction
    recurrence, sharing no code with the library's tangent table."""
    values = [Fraction(1)]
    for n in range(1, nmax + 1):
        values.append(-sum(comb(n, k) * values[k] for k in range(n)) / 2)
    return values


def zigzag_numbers_by_boustrophedon(nmax):
    """A_0..A_nmax, the zigzag numbers, from the Seidel-Entringer-Arnold
    boustrophedon: row n starts at 0 and adds the entries of row n-1 read
    backwards, and A_n is its last entry.  It shares neither code nor
    recurrence with the library's tangent table."""
    values, row = [1], [1]
    for _ in range(nmax):
        sums = [0]
        for entry in reversed(row):
            sums.append(sums[-1] + entry)
        row = sums
        values.append(row[-1])
    return values


def random_rationals(rng, count, bound=50):
    """Deterministic sample of rationals with |num| <= bound, den <= bound."""
    return [
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        for _ in range(count)
    ]

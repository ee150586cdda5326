"""Shared test oracles and helpers.  The oracles are kept independent of the
library code.  This module is the only code that patches the library:

- ``cold_caches`` empties every library cache on entry and on exit;
- ``mutated`` sets one library name for a block, inside ``cold_caches``,
  with an undo of its own;
- ``recorded`` wraps one library name under ``mutated`` and gives the
  argument tuple of every call;
- ``source_mutant`` recompiles a library function with one fault in its
  source, for ``mutated`` to install.

``library_caches``, ``clear_library_caches``, ``GRID_MIXED`` and the two
truncation mutants ``short_l_series`` and ``short_main_congruence`` touch
the library too.  test_cli.py has a guard that fails if a test module
patches the library, clears its caches or recompiles it on its own."""

import builtins
import inspect
import json
import sys
import textwrap
from contextlib import contextmanager
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from eulerlp import GridConfig, cli, harness, lfunctions

ROOT = Path(__file__).resolve().parent.parent


def _grid_mixed():
    """The config of the benchmark's grid-mixed argv, read as cmd_grid reads it."""
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    _, args = cli._parse(workloads["grid-mixed"]["default_argv"])
    axes = [cli._int_list(f"--{name}", args[name]) for name in ("primes", "r", "n")]
    return GridConfig(*axes, args["precision"])


GRID_MIXED = _grid_mixed()


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
    """cache_clear() every cache of :func:`library_caches`."""
    for cache in library_caches().values():
        cache.cache_clear()


@contextmanager
def cold_caches():
    """Every library cache empty on entry and again on exit: no value cached
    before the block can hide a mutant, none cached inside it outlives it,
    and a cache's counts inside the block start from zero."""
    clear_library_caches()
    try:
        yield
    finally:
        clear_library_caches()


@contextmanager
def mutated(target, name, replacement):
    """``target.name`` is ``replacement`` inside the block and inside
    :func:`cold_caches`; the undo on exit is this patch's own.  A builtin
    such as ``pow`` has no binding in the module that calls it, so the
    module gets one for the block."""
    with cold_caches(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(target, name, replacement, raising=name not in vars(builtins))
        yield


@contextmanager
def recorded(target, name):
    """The argument tuple of every call of ``target.name`` inside the block,
    in call order; the calls go on to the original under :func:`mutated`."""
    original = getattr(target, name) if hasattr(target, name) else vars(builtins)[name]
    calls = []

    def record(*args):
        calls.append(args)
        return original(*args)

    with mutated(target, name, record):
        yield calls


def source_mutant(function, fault, mutation):
    """``function`` compiled from its own source, against its module's
    globals, with the one occurrence of ``fault`` replaced by ``mutation``."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(fault) == 1
    namespace = {}
    exec(source.replace(fault, mutation), vars(sys.modules[function.__module__]), namespace)
    return namespace[function.__name__]


def leading_digits(report, digits):
    """The lhs and rhs digits of a p-adic report below p^digits, and its
    match flag: what a report at more digits, reduced to digits, must give."""
    return report.lhs["digits"][:digits], report.rhs["digits"][:digits], report.match


@pytest.fixture
def short_l_series():
    """Every partial zeta and l-series sums one term short: the last entry
    of ``lfunctions._binomial_row`` is 0, so a value mod p^N drops its
    j = N - 1 term."""
    original = lfunctions._binomial_row

    def mutant(s, terms):
        return original(s, terms)[:-1] + (0,)

    with mutated(lfunctions, "_binomial_row", mutant):
        yield


@pytest.fixture
def short_main_congruence():
    """The main congruence series stops before s = r + k reaches N: its
    diagonal l-values are 0 from s = N on, so it drops every k >= N - r.
    At even N the one term it drops at r = 1, k = N - 1, is 0 mod p^N
    anyway: l_p(s, w^(-s)) = sum_{0<a<p} (-1)^a a^(-s) mod p, and at even s
    the classes a and p - a cancel, so there only r >= 2 reports see it.
    ``short_l_series`` cannot stand in: each l-value is multiplied by (pn)^k
    with k >= 1, so its last digit never reaches the residue."""
    original = harness._diagonal_l

    def mutant(s, ctx):
        return 0 if s >= ctx.precision else original(s, ctx)

    with mutated(harness, "_diagonal_l", mutant):
        yield


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

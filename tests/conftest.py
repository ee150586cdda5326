"""Shared test helpers; the reference values live in oracles.py, which
shares no code with the library.  This module is the only code that patches
the library:

- ``cold_caches`` empties every library cache on entry and on exit;
- ``mutated`` sets one library name for a block, inside ``cold_caches``,
  with an undo of its own;
- ``recorded`` wraps one library name under ``mutated`` and gives the
  argument tuple of every call;
- ``source_mutant`` recompiles a library function with one fault in its
  source, for ``mutated`` to install.

``library_caches``, ``clear_library_caches``, ``grid_config``, ``GRID_MIXED``
and the two truncation faults ``short_l_series_fault`` and
``short_main_congruence_fault``, with the fixtures that install them, touch
the library too.  test_cli.py has a guard that fails if a test module
patches the library, clears its caches or recompiles it on its own.

``run_python`` runs a child Python against the package in src/."""

import builtins
import inspect
import json
import os
import subprocess
import sys
import textwrap
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from eulerlp import GridConfig, cli, harness, lfunctions

ROOT = Path(__file__).resolve().parent.parent


def src_environ():
    """os.environ with src/ put in front of any PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_python(*args, **options):
    """``python ARGS`` in a child under :func:`src_environ`, such as
    ``run_python("-m", "eulerlp", *argv)`` or ``run_python("-S", "-c",
    probe)``: stdout and stderr captured as text and a 120 s timeout, unless
    ``options``, passed on to subprocess.run, say otherwise."""
    options = {"capture_output": True, "text": True, "timeout": 120, **options}
    return subprocess.run([sys.executable, *args], env=src_environ(), **options)


def grid_config(argv):
    """The config of a grid argv, a list of words, read as cmd_grid reads it."""
    _, args = cli._parse(argv)
    axes = [cli._int_list(f"--{name}", args[name]) for name in ("primes", "r", "n")]
    return GridConfig(*axes, args["precision"])


# the benchmark's grid-mixed argv, as words, and its config
GRID_MIXED_ARGV = json.loads(
    (ROOT / "perfbench" / "workloads.json").read_text()
)["grid-mixed"]["default_argv"]
GRID_MIXED = grid_config(GRID_MIXED_ARGV)


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


def short_l_series_fault():
    """Every partial zeta and l-series sums one term short: the last entry
    of ``lfunctions._binomial_row`` is 0, so a value mod p^N drops its
    j = N - 1 term.  As (target, name, mutant), for :func:`mutated`."""
    original = lfunctions._binomial_row

    def mutant(s, terms):
        return original(s, terms)[:-1] + (0,)

    return lfunctions, "_binomial_row", mutant


def short_main_congruence_fault():
    """The main congruence series stops before s = r + k reaches N: its
    diagonal l-values are 0 from s = N on, so it drops every k >= N - r.
    At even N the one term it drops at r = 1, k = N - 1, is 0 mod p^N
    anyway: l_p(s, w^(-s)) = sum_{0<a<p} (-1)^a a^(-s) mod p, and at even s
    the classes a and p - a cancel, so there only r >= 2 reports see it.
    ``short_l_series_fault`` cannot stand in: each l-value is multiplied by
    (pn)^k with k >= 1, so its last digit never reaches the residue.  As
    (target, name, mutant), for :func:`mutated`."""
    original = harness._diagonal_l

    def mutant(s, ctx):
        return 0 if s >= ctx.precision else original(s, ctx)

    return harness, "_diagonal_l", mutant


@pytest.fixture
def short_l_series():
    """:func:`short_l_series_fault`, installed for the test."""
    with mutated(*short_l_series_fault()):
        yield


@pytest.fixture
def short_main_congruence():
    """:func:`short_main_congruence_fault`, installed for the test."""
    with mutated(*short_main_congruence_fault()):
        yield


def random_rationals(rng, count, bound=50):
    """Deterministic sample of rationals with |num| <= bound, den <= bound."""
    return [
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        for _ in range(count)
    ]

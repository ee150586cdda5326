"""End-to-end verification of the main congruence and the identity suites.

The main congruence states that for an odd prime p, even n and r >= 1,
twice the alternating harmonic sum over units j <= np satisfies

    2 sum' (-1)^j / j^r  =  -sum_{k>=1} C(-r, k) (pn)^k l_p(r+k, w^{-k-r})

as p-adic numbers.  The left side is a rational with denominator prime to
p (``alt_harmonic_sum`` gives it exactly); the check sums it on int residues
mod p^M.  The right side is truncated at k = M since term k has valuation
>= k.

``CHECKS`` is the one registry of named checks; the CLI's ``verify`` runs one
entry and ``grid`` runs every entry over a parameter grid.
"""

from __future__ import annotations

from fractions import Fraction

from .characters import teichmuller_power
from .euler import (
    alternating_power_sum,
    alternating_power_sum_closed,
    euler_polynomial_value,
)
from .lfunctions import _series_cutoff, interpolation_check, kummer_check, padic_l
from .padic import PadicContext, PadicNumber, Value, _set, binomial, is_prime
from .reports import CongruenceReport, format_rational, padic_report, rational_report


def alt_harmonic_sum(p: int, n: int, r: int) -> Fraction:
    """sum of (-1)^j / j^r over j = 1..n*p with p not dividing j, exactly.

    The denominator is automatically prime to p.  Note the sum itself is
    returned; the congruence compares twice this value.
    """
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if n < 0 or n % 2:
        raise ValueError("n must be even and >= 0")
    if r < 1:
        raise ValueError("r must be >= 1")
    total = Fraction(0)
    for j in range(1, n * p + 1):
        if j % p:
            total += Fraction((-1) ** j, j**r)
    return total


def _alt_harmonic_residue(p: int, n: int, r: int, m: int) -> int:
    """2 * alt_harmonic_sum(p, n, r) mod m for a power m of p, summed on
    int residues: 2 sum of (-1)^j j^(-r) mod m over j = 1..n*p with p not
    dividing j."""
    total = 0
    for j in range(1, n * p + 1):
        if j % p:
            term = pow(j, -r, m)
            total += -term if j % 2 else term
    return 2 * total % m


def main_congruence_series(
    n: int, r: int, ctx: PadicContext, *, margin: int = 0
) -> PadicNumber:
    """-sum_{k=1}^{K} C(-r, k) (pn)^k l_p(r+k, w^{-k-r}) mod p^N, with p
    and N the prime and precision of ctx.

    K = N + margin; since (pn)^k has valuation >= k and l_p values lie in
    Z_p, any K >= N gives the same residue.
    """
    total = sum(
        binomial(-r, k)
        * (ctx.p * n) ** k
        * padic_l(r + k, teichmuller_power(-(k + r), ctx), margin=margin).residue
        for k in range(1, _series_cutoff(ctx, margin) + 1)
    )
    return ctx.from_int(-total)


def verify_main_congruence(
    p: int, n: int, r: int, digits: int, *, margin: int = 0
) -> CongruenceReport:
    """Compare twice the alternating harmonic sum, summed on residues mod
    p^digits (the value of 2 * alt_harmonic_sum(p, n, r) there), with the
    series side; the report is labeled "theorem6" in CLI vocabulary."""
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    ctx = PadicContext(p, digits)
    if r < 1:
        raise ValueError("r must be >= 1")
    lhs = ctx.from_int(_alt_harmonic_residue(p, n, r, ctx.modulus))
    rhs = main_congruence_series(n, r, ctx, margin=margin)
    params = {"p": p, "n": n, "r": r, "M": digits}
    return padic_report("theorem6", params, lhs, rhs)


# Fixed evaluation points for the p-independent identity suites.
DISTRIBUTION_POINTS = (
    Fraction(0),
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(-2, 7),
    Fraction(5, 4),
)
DISTRIBUTION_MODULI = (1, 3, 5, 7)
POWER_SUM_EXPONENTS = tuple(range(9))


class GridConfig(Value):
    """Parameter grid for :func:`run_grid`; values are normalized to sorted
    deduplicated tuples so equal configs produce identical report streams."""

    __slots__ = __match_args__ = ("primes", "r_values", "n_values", "precision")

    def __init__(self, primes, r_values, n_values, precision: int):
        _set(self, "primes", tuple(sorted(set(primes))))
        _set(self, "r_values", tuple(sorted(set(r_values))))
        _set(self, "n_values", tuple(sorted(set(n_values))))
        _set(self, "precision", precision)
        for p in self.primes:
            if p < 3 or not is_prime(p):
                raise ValueError(f"primes must be odd primes, got {p}")
        for n in self.n_values:
            if n < 2 or n % 2:
                raise ValueError(f"n values must be even and >= 2, got {n}")
        for r in self.r_values:
            if r < 1:
                raise ValueError(f"r values must be >= 1, got {r}")
        if precision < 1:
            raise ValueError("precision must be >= 1")


def distribution_report(n: int, f: int, x: Fraction) -> CongruenceReport:
    """E_n(x) against f^n sum_{a=0}^{f-1} (-1)^a E_n((x + a) / f), exactly.

    The identity holds for every odd f >= 1.
    """
    if f < 1 or f % 2 == 0:
        raise ValueError(f"f must be odd and >= 1, got {f}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    x = Fraction(x)
    lhs = euler_polynomial_value(n, x)
    rhs = Fraction(f) ** n * sum(
        ((-1) ** a) * euler_polynomial_value(n, (x + a) / f) for a in range(f)
    )
    params = {"n": n, "f": f, "x": format_rational(x)}
    return rational_report("distribution", params, lhs, rhs)


def power_sum_report(n: int, m: int) -> CongruenceReport:
    """Direct alternating power sum against its closed form (even n)."""
    lhs = alternating_power_sum(n, m)
    rhs = alternating_power_sum_closed(n, m)
    return rational_report("powersum", {"n": n, "m": m}, lhs, rhs)


def binomial_ratio_report(r: int, k: int) -> CongruenceReport:
    """(r/(r+k)) C(-r-1, k) = C(-r, k), exactly, for k >= 0 and r + k != 0."""
    if k < 0:
        raise ValueError(f"the ratio identity needs k >= 0, got k={k}")
    if r + k == 0:
        raise ValueError(f"the ratio identity needs r + k != 0, got r={r}, k={k}")
    lhs = Fraction(r, r + k) * binomial(-r - 1, k)
    rhs = Fraction(binomial(-r, k))
    return rational_report("binomial", {"r": r, "k": k, "identity": "ratio"}, lhs, rhs)


def binomial_product_report(r: int, k: int, j: int) -> CongruenceReport:
    """C(-r, k) C(-r-k, j) = C(-r, k+j) C(k+j, j), exactly, for k, j >= 0."""
    if k < 0 or j < 0:
        raise ValueError(f"the product identity needs k, j >= 0, got k={k}, j={j}")
    lhs = binomial(-r, k) * binomial(-r - k, j)
    rhs = binomial(-r, k + j) * binomial(k + j, j)
    params = {"r": r, "k": k, "j": j, "identity": "product"}
    return rational_report("binomial", params, lhs, rhs)


def _theorem6(params: dict) -> list[CongruenceReport]:
    p, n, r, M = params["p"], params["n"], params["r"], params["precision"]
    return [verify_main_congruence(p, n, r, M)]


def _interpolation(params: dict) -> list[CongruenceReport]:
    ctx = PadicContext(params["p"], params["precision"])
    chi = teichmuller_power(params["t"], ctx)
    return [interpolation_check(params["n"], chi)]


def _kummer(params: dict) -> list[CongruenceReport]:
    ctx = PadicContext(params["p"], params["precision"])
    return [kummer_check(params["k"], params["t"], ctx, params["k2"])]


def _distribution(params: dict) -> list[CongruenceReport]:
    return [distribution_report(params["n"], params["f"], params["x"])]


def _power_sum(params: dict) -> list[CongruenceReport]:
    return [power_sum_report(params["n"], params["m"])]


def _binomial(params: dict) -> list[CongruenceReport]:
    # A grid row passes a tuple of j values: the ratio for (r, k) comes once,
    # then one product per j.
    r, k, js = params["r"], params["k"], params["j"]
    if not isinstance(js, tuple):
        js = (js,)
    return [binomial_ratio_report(r, k)] + [binomial_product_report(r, k, j) for j in js]


# check name -> (parameters without a default, function of a params dict).
# The functions call the report builders through this module's globals, so
# a tracer that rebinds those names sees every call.
CHECKS = {
    "theorem6": (("p", "n", "r"), _theorem6),
    "interpolation": (("p", "n"), _interpolation),
    "kummer": (("p", "k"), _kummer),
    "distribution": (("n", "f"), _distribution),
    "powersum": (("n", "m"), _power_sum),
    "binomial": (("r", "k", "j"), _binomial),
}


def _grid_jobs(config: GridConfig) -> list[tuple[str, dict]]:
    """(check name, params) specs for every grid point, in canonical order."""
    M = config.precision
    jobs = []
    for p in config.primes:
        for r in config.r_values:
            for n in config.n_values:
                jobs.append(("theorem6", {"p": p, "n": n, "r": r, "precision": M}))
    for p in config.primes:
        for n in config.n_values:
            for t in range(p - 1):
                jobs.append(("interpolation", {"p": p, "n": n, "t": t, "precision": M}))
    for p in config.primes:
        for k in config.r_values:
            jobs.append(("kummer", {"p": p, "k": k, "t": 0, "k2": None, "precision": M}))
    for n in config.n_values:
        for f in DISTRIBUTION_MODULI:
            for x in DISTRIBUTION_POINTS:
                jobs.append(("distribution", {"n": n, "f": f, "x": x}))
    for n in config.n_values:
        for m in POWER_SUM_EXPONENTS:
            jobs.append(("powersum", {"n": n, "m": m}))
    for r in config.r_values:
        for k in config.r_values:
            jobs.append(("binomial", {"r": r, "k": k, "j": config.r_values}))
    return jobs


def run_grid(config: GridConfig) -> list[CongruenceReport]:
    """Every check suite over the configured grid, in canonical parameter
    order, so equal configs give identical report streams."""
    return [
        report
        for name, params in _grid_jobs(config)
        for report in CHECKS[name][1](params)
    ]

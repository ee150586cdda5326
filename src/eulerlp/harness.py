"""Every check: the main congruence end to end, l-function checks and identity suites.

The main congruence states that for an odd prime p, even n and r >= 1,
twice the alternating harmonic sum over units j <= np satisfies

    2 sum' (-1)^j / j^r  =  -sum_{k>=1} C(-r, k) (pn)^k l_p(r+k, w^{-k-r})

as p-adic numbers.  The left side is a rational with denominator prime to
p (``alt_harmonic_sum`` gives it exactly); the check sums it on int residues
mod p^M, in one pass per (p, r) read off at every n; the right side, a
polynomial in n from one coefficient list per (p, r), stops at k = M - 1.

``CHECKS`` is the one registry of named checks, each with its grid rows; the
CLI's ``verify`` runs one check and ``grid`` runs every check on its rows,
where a row carries its inner axis (theorem6's n, interpolation's t, binomial's j).
"""

from functools import lru_cache

from . import euler, lfunctions, padic, reports
from .characters import DirichletCharacter
from .padic import PadicContext, PadicNumber, Value, _set
from .reports import CongruenceReport


def alt_harmonic_sum(p: int, n: int, r: int) -> "Fraction":
    """sum of (-1)^j / j^r over j = 1..n*p with p not dividing j, exactly.

    The denominator is automatically prime to p.  Note the sum itself is
    returned; the congruence compares twice this value.
    """
    if p < 3 or not padic.is_prime(p):
        raise ValueError("p must be an odd prime")
    if n < 0 or n % 2:
        raise ValueError("n must be even and >= 0")
    if r < 1:
        raise ValueError("r must be >= 1")
    terms = (euler._fraction((-1) ** j, j**r) for j in range(1, n * p + 1) if j % p)
    return sum(terms, euler._fraction(0))


def _alt_harmonic_residues(p: int, ns: tuple[int, ...], r: int, m: int) -> list[int]:
    """2 * alt_harmonic_sum(p, n, r) mod a power m of p at each n of the ascending
    tuple ns: one pass of 2 (-1)^j j^(-r) over units j, read off at each j = n*p."""
    residues, total, start = [], 0, 1
    for n in ns:
        for j in range(start, n * p):
            if j % p:
                term = pow(j, -r, m)
                total += -term if j % 2 else term
        residues.append(2 * total % m)
        start = n * p + 1  # starting at n*p changes nothing: p divides it
    return residues


def main_congruence_series(n: int, r: int, ctx: PadicContext) -> PadicNumber:
    """The series side at one n: :func:`_series_residues` of (n,)."""
    return ctx.from_int(_series_residues((n,), r, ctx)[0])


def _series_residues(ns: tuple[int, ...], r: int, ctx: PadicContext) -> list[int]:
    """-sum_{k=1}^{N-1} C(-r, k) (pn)^k l_p(r+k, w^{-k-r}) mod p^N at each n
    of ns, with p and N the prime and precision of ctx: the polynomial
    sum_k c_k n^k, from one list of c_k = -C(-r, k) p^k l_p(r+k, w^{-k-r}).

    Since (pn)^k has valuation >= k and l_p values lie in Z_p, the terms
    from k = N on vanish mod p^N.
    """
    p, m = ctx.p, ctx.modulus
    c = [-padic.binomial(-r, k) * p**k * _diagonal_l(r + k, ctx) % m
         for k in range(1, ctx.precision)]
    return [sum(c_k * n**k for k, c_k in enumerate(c, 1)) % m for n in ns]


@lru_cache(maxsize=None)
def _diagonal_l(s: int, ctx: PadicContext) -> int:
    """The residue of l_p(s, w^(-s)) in ctx."""
    return lfunctions._l_residue(s, -s % (ctx.p - 1), ctx)


def verify_main_congruence(p: int, n: int, r: int, digits: int) -> CongruenceReport:
    """The "theorem6" report at one n: 2 * alt_harmonic_sum(p, n, r), summed
    on residues mod p^digits, against the series side."""
    return _theorem6({"p": p, "n": n, "r": r, "precision": digits})[0]


def series_closed_check(n: int, a: int, ctx: PadicContext) -> CongruenceReport:
    """The partial zeta series H_p(-n, a | p) against its closed form, mod
    p^N with N the precision of ctx, both on residues."""
    rhs = lfunctions._closed_residue(n, a, ctx.p, ctx)  # checks n and a before a indexes the row
    lhs = lfunctions._l_series_row(-n, ctx.p, ctx)[a]
    params = {"p": ctx.p, "n": n, "a": a, "F": ctx.p, "M": ctx.precision}
    return reports.residue_report("series_closed", params, ctx, lhs, rhs)


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
    rhs = (1 - p**n if u == 0 else 1) * lfunctions._euler_residue(n, u, ctx)
    params = {"p": p, "n": n, "t": t, "M": ctx.precision}
    lhs = lfunctions._l_residue(-n, t, ctx)
    return reports.residue_report("interpolation", params, ctx, lhs, rhs)


def kummer_check(k: int, t: int, ctx: PadicContext, k2: int | None = None) -> CongruenceReport:
    """l_p(k, w^t) against l_p(k2, w^t) mod p, for t = 0 mod p-1 (so w^t = w^0),
    both from ctx's own series rows, reported in 1 digit.  k2 defaults to k + p;
    any pair may be given, since for such t the function is constant mod p."""
    p = ctx.p
    if t % (p - 1) != 0:
        raise ValueError("the congruence needs t = 0 mod p-1")
    k2 = k + p if k2 is None else k2
    params = {"p": p, "k": k, "k2": k2, "t": 0, "M": 1}
    return reports.residue_report("kummer", params, PadicContext(p, 1),
                          lfunctions._l_residue(k, 0, ctx), lfunctions._l_residue(k2, 0, ctx))


# Fixed evaluation points, as (numerator, denominator), for the identity suites.
DISTRIBUTION_POINTS = ((0, 1), (1, 2), (1, 3), (-2, 7), (5, 4))
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
            if p < 3 or not padic.is_prime(p):
                raise ValueError(f"primes must be odd primes, got {p}")
        for n in self.n_values:
            if n < 2 or n % 2:
                raise ValueError(f"n values must be even and >= 2, got {n}")
        for r in self.r_values:
            if r < 1:
                raise ValueError(f"r values must be >= 1, got {r}")
        if precision < 1:
            raise ValueError("precision must be >= 1")


def distribution_report(n: int, f: int, x) -> CongruenceReport:
    """E_n(x) against f^n sum_{a=0}^{f-1} (-1)^a E_n((x + a) / f), exactly,
    at x an int, a Fraction or a (numerator, denominator) int pair.  The
    identity holds for every odd f >= 1.
    """
    if f < 1 or f % 2 == 0:
        raise ValueError(f"f must be odd and >= 1, got {f}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    u, v = x if isinstance(x, tuple) else (x.numerator, x.denominator)
    if v == 0:
        raise ValueError(f"x must have a nonzero denominator, got {x!r}")
    # both sides over (2v)^n: f^n E_n((u + av) / fv) = H(n, u + av, fv) / (2v)^n
    scale = (2 * v) ** n
    lhs = (euler._euler_form(n, u, v), scale)
    terms = ((-1) ** a * euler._euler_form(n, u + a * v, f * v) for a in range(f))
    rhs = (sum(terms), scale)
    params = {"n": n, "f": f, "x": reports.format_rational(x)}
    return reports.rational_report("distribution", params, lhs, rhs)


def power_sum_report(n: int, m: int) -> CongruenceReport:
    """Direct alternating power sum against its closed form (even n)."""
    lhs = euler._alternating_power_sum(n, m)
    rhs = euler._alternating_power_sum_closed(n, m)
    return reports.rational_report("powersum", {"n": n, "m": m}, lhs, rhs)


def binomial_ratio_report(r: int, k: int) -> CongruenceReport:
    """(r/(r+k)) C(-r-1, k) = C(-r, k), exactly, for k >= 0 and r + k != 0."""
    if k < 0:
        raise ValueError(f"the ratio identity needs k >= 0, got k={k}")
    if r + k == 0:
        raise ValueError(f"the ratio identity needs r + k != 0, got r={r}, k={k}")
    lhs = (r * padic.binomial(-r - 1, k), r + k)
    rhs = padic.binomial(-r, k)
    return reports.rational_report("binomial", {"r": r, "k": k, "identity": "ratio"}, lhs, rhs)


def binomial_product_report(r: int, k: int, j: int) -> CongruenceReport:
    """C(-r, k) C(-r-k, j) = C(-r, k+j) C(k+j, j), exactly, for k, j >= 0."""
    if k < 0 or j < 0:
        raise ValueError(f"the product identity needs k, j >= 0, got k={k}, j={j}")
    lhs = padic.binomial(-r, k) * padic.binomial(-r - k, j)
    rhs = padic.binomial(-r, k + j) * padic.binomial(k + j, j)
    params = {"r": r, "k": k, "j": j, "identity": "product"}
    return reports.rational_report("binomial", params, lhs, rhs)


def _axis(value) -> tuple:
    """A grid row's tuple of values, or one verify option's value as a tuple."""
    return value if isinstance(value, tuple) else (value,)


def _theorem6(params: dict) -> list[CongruenceReport]:
    p, r, M, ns = params["p"], params["r"], params["precision"], _axis(params["n"])
    if any(n < 2 or n % 2 for n in ns):
        raise ValueError("n must be even and >= 2")
    ctx = PadicContext(p, M)
    if r < 1:
        raise ValueError("r must be >= 1")
    lhs = _alt_harmonic_residues(p, ns, r, ctx.modulus)
    rhs = _series_residues(ns, r, ctx)
    return [reports.residue_report("theorem6", {"p": p, "n": n, "r": r, "M": M}, ctx, a, b)
            for n, a, b in zip(ns, lhs, rhs)]


def _interpolation(params: dict) -> list[CongruenceReport]:
    ctx, n = PadicContext(params["p"], params["precision"]), params["n"]
    return [_interpolation_report(n, t % (ctx.p - 1), ctx) for t in _axis(params["t"])]


def _kummer(params: dict) -> list[CongruenceReport]:
    ctx = PadicContext(params["p"], params["precision"])
    return [kummer_check(params["k"], params["t"], ctx, params["k2"])]


def _distribution(params: dict) -> list[CongruenceReport]:
    return [distribution_report(params["n"], params["f"], params["x"])]


def _power_sum(params: dict) -> list[CongruenceReport]:
    return [power_sum_report(params["n"], params["m"])]


def _binomial(params: dict) -> list[CongruenceReport]:
    r, k, js = params["r"], params["k"], _axis(params["j"])
    return [binomial_ratio_report(r, k)] + [binomial_product_report(r, k, j) for j in js]


# check name -> (parameters without a default, function of a params dict
# giving the check's reports, function of a GridConfig giving the params of
# its grid rows in order).  ``verify`` runs the second on its options and
# ``grid`` runs it on every row, whose keys are ``verify`` options too.  A
# row may carry its inner axis as a tuple where ``verify`` gives one value:
# theorem6 its n values (one harmonic pass gives every left side),
# interpolation its t values (one context) and binomial its j values (the
# ratio for (r, k) once, then one product per j).  Every report builder is
# in this module and called through its globals, so a tracer that rebinds
# those names sees every call; like every library module, this one calls
# the functions of the others through the module (``lfunctions._l_residue``,
# ``padic.binomial``), so a fault installed where a function is defined
# reaches it.
CHECKS = {
    "theorem6": (("p", "n", "r"), _theorem6, lambda c: [
        {"p": p, "n": c.n_values, "r": r, "precision": c.precision}
        for p in c.primes for r in c.r_values
    ]),
    "interpolation": (("p", "n"), _interpolation, lambda c: [
        {"p": p, "n": n, "t": tuple(range(p - 1)), "precision": c.precision}
        for p in c.primes for n in c.n_values
    ]),
    "kummer": (("p", "k"), _kummer, lambda c: [
        {"p": p, "k": k, "t": 0, "k2": None, "precision": c.precision}
        for p in c.primes for k in c.r_values
    ]),
    "distribution": (("n", "f"), _distribution, lambda c: [
        {"n": n, "f": f, "x": x}
        for n in c.n_values for f in DISTRIBUTION_MODULI for x in DISTRIBUTION_POINTS
    ]),
    "powersum": (("n", "m"), _power_sum, lambda c: [
        {"n": n, "m": m} for n in c.n_values for m in POWER_SUM_EXPONENTS
    ]),
    "binomial": (("r", "k", "j"), _binomial, lambda c: [
        {"r": r, "k": k, "j": c.r_values} for r in c.r_values for k in c.r_values
    ]),
}


def run_grid(config: GridConfig) -> list[CongruenceReport]:
    """Every check suite over the configured grid, in canonical parameter
    order, so equal configs give identical report streams."""
    return [
        report
        for _, run, rows in CHECKS.values()
        for params in rows(config)
        for report in run(params)
    ]

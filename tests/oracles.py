"""Reference values for the tests, sharing no code with the library.

This module imports only the standard library: nothing from ``eulerlp``,
and no sympy.  Each reference primitive is written here once, on Fractions
and on plain int residues mod m = p^M:

- ``residue``: a rational whose denominator is prime to p, mod p^M;
- ``lifts``, ``angle`` and ``character_values``: the closed-form
  Teichmuller lift w(a) = a^(p^(M-1)) mod p^M, <a> = a / w(a), and the
  values of w^t;
- ``euler_number`` and ``euler_polynomial``: E_n from the exact Fraction
  recurrence, and E_n(x) by Horner's rule on Fractions;
- ``bernoulli_numbers`` and ``zigzag_numbers``: two routes to E_n apart
  from that recurrence;
- ``binomial``: C(z, j) as a falling product over j!;
- ``alt_harmonic_sum``: the main congruence's exact left side, halved,
  summed on Fractions;
- ``partial_zeta_neg``: the exact partial zeta value at -n,
  (-1)^a (F^n / 2) E_n(a/F);
- ``partial_zeta_row``: the partial zeta series
  H_p(s, a | F) = (-1)^a / 2 <a>^(-s) sum_{j<J} C(-s, j) (F/a)^j E_j at an
  odd multiple F of p and a cutoff J;
- ``l_p``, ``generalized_euler_number``, ``interpolation_rhs`` and
  ``main_congruence_series``: the p-adic values the checks compare;
- ``fermionic_l``: Kim's fermionic sum at level 1 (T. Kim,
  "q-Volkenborn integration", Russ. J. Math. Phys. 9 (2002) 288-299);
- ``wire``, ``padic_report`` and ``rational_report``: a side and a report
  as the CLI prints them, parsed as JSON, and ``distribution_report``;
- ``reference_reports`` and ``grid_reference``: every report of an
  ``eulerlp grid`` run, in grid's order, from its axes or its argv alone;
  ``parse_output`` reads the printed reports, JSON lines or CSV, and
  ``differing`` counts, per suite, the printed reports that are not the
  reference.
"""

import csv
import io
import json
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod


def residue(q, m):
    """A rational q whose denominator is prime to m, mod m."""
    q = Fraction(q)
    return q.numerator * pow(q.denominator, -1, m) % m


@lru_cache(maxsize=None)
def lifts(p, M):
    """w(a) = a^(p^(M-1)) mod p^M for 0 <= a < p: the Teichmuller lift in
    closed form, the (p-1)-th root of unity congruent to a mod p."""
    return tuple(pow(a, p ** (M - 1), p**M) for a in range(p))


def angle(p, M, a):
    """<a> = a / w(a) mod p^M for a unit a, w(a) depending on a mod p."""
    return a * pow(lifts(p, M)[a % p], -1, p**M) % p**M


def character_values(p, M, t):
    """w^t(a) mod p^M for a below the conductor: (1,) for t = 0 mod p-1,
    conductor 1, and otherwise 0 at a = 0 and w(a)^t for 0 < a < p."""
    if t % (p - 1) == 0:
        return (1,)
    return (0,) + tuple(pow(w, t, p**M) for w in lifts(p, M)[1:])


@lru_cache(maxsize=None)
def euler_number(n):
    """E_n = E_n(0) from E_0 = 1 and E_n = -(1/2) sum_{k<n} C(n, k) E_k,
    which multiplying 2 / (e^t + 1) by e^t + 1 forces.  The sum asks for
    E_0, E_1, ... in turn, so no call recurses more than one level."""
    if n == 0:
        return Fraction(1)
    return -sum(comb(n, k) * euler_number(k) for k in range(n)) / 2


@lru_cache(maxsize=None)
def euler_polynomial(n, x):
    """E_n(x) = sum_i C(n, i) E_(n-i) x^i by Horner's rule on Fractions."""
    value = Fraction(0)
    for i in range(n, -1, -1):
        value = value * x + comb(n, i) * euler_number(n - i)
    return value


def bernoulli_numbers(nmax):
    """B_0..B_nmax with B_1 = -1/2, from the defining recurrence
    sum_{k=0}^{m-1} C(m+1, k) B_k = -(m+1) B_m for m >= 1."""
    values = [Fraction(1)]
    for m in range(1, nmax + 1):
        values.append(-sum(comb(m + 1, k) * values[k] for k in range(m)) / (m + 1))
    return values


def zigzag_numbers(nmax):
    """A_0..A_nmax, the zigzag numbers, from the Seidel-Entringer-Arnold
    boustrophedon: row n starts at 0 and adds the entries of row n-1 read
    backwards, and A_n is its last entry."""
    values, row = [1], [1]
    for _ in range(nmax):
        sums = [0]
        for entry in reversed(row):
            sums.append(sums[-1] + entry)
        row = sums
        values.append(row[-1])
    return values


def binomial(z, j):
    """C(z, j) for any integer z and j >= 0: z (z-1) ... (z-j+1) / j!."""
    return prod(range(z, z - j, -1)) // factorial(j)


def alt_harmonic_sum(p, n, r):
    """sum of (-1)^j / j^r over 0 < j <= np with p not dividing j, exactly:
    each half of the range summed alone, so that no Fraction carries the
    whole denominator until the last sum."""

    def total(lo, hi):
        if hi - lo > 1:
            mid = (lo + hi) // 2
            return total(lo, mid) + total(mid, hi)
        return Fraction((-1) ** lo, lo**r) if hi > lo and lo % p else Fraction(0)

    return total(1, n * p + 1)


def partial_zeta_neg(n, a, F):
    """The partial zeta value at -n of the class a mod an odd F,
    (-1)^a (F^n / 2) E_n(a/F), on Fractions."""
    return (-1) ** a * Fraction(F) ** n / 2 * euler_polynomial(n, Fraction(a, F))


@lru_cache(maxsize=None)
def partial_zeta_row(p, M, s, F=None, cutoff=None):
    """H_p(s, a | F) mod p^M for 0 <= a < F, and 0 where p divides a, for
    an odd multiple F of p (p by default), summed to ``cutoff`` terms (M by
    default).  Term j carries (F/a)^j and so p^j: M terms are exact mod p^M."""
    F, m = F or p, p**M
    cutoff = M if cutoff is None else cutoff
    terms = [(binomial(-s, j), residue(euler_number(j), m)) for j in range(cutoff)]
    row = [0] * F
    for a in range(1, F):
        if a % p:
            ratio = F * pow(a, -1, m)
            series = sum(c * pow(ratio, j, m) * e for j, (c, e) in enumerate(terms))
            row[a] = residue(Fraction((-1) ** a, 2), m) * pow(angle(p, M, a), -s, m) * series % m
    return tuple(row)


@lru_cache(maxsize=None)
def l_p(p, M, s, t):
    """l_p(s, w^t) = 2 sum_{0<a<p} w(a)^t H_p(s, a | p) mod p^M."""
    row, m = partial_zeta_row(p, M, s), p**M
    return 2 * sum(pow(lifts(p, M)[a], t, m) * row[a] for a in range(1, p)) % m


def generalized_euler_number(p, M, n, t):
    """E_(n, w^t) mod p^M: E_n for t = 0 mod p-1, and otherwise
    p^n sum_{0<a<p} w(a)^t (-1)^a E_n(a/p)."""
    m = p**M
    if t % (p - 1) == 0:
        return residue(euler_number(n), m)
    values = character_values(p, M, t)
    return sum(
        values[a] * residue((-1) ** a * p**n * euler_polynomial(n, Fraction(a, p)), m)
        for a in range(1, p)
    ) % m


def interpolation_rhs(p, M, n, t):
    """(1 - p^n chi_n(p)) E_(n, chi_n) mod p^M with chi_n = w^(t-n): the
    value l_p(-n, w^t) interpolates.  chi_n(p) is 1 at conductor 1 and 0
    otherwise."""
    factor = 1 - p**n if (t - n) % (p - 1) == 0 else 1
    return factor * generalized_euler_number(p, M, n, t - n) % p**M


def main_congruence_series(p, M, n, r):
    """-sum_{0<k<M} C(-r, k) (pn)^k l_p(r + k, w^(-k-r)) mod p^M, the series
    side of the main congruence; each term k >= M carries p^M."""
    terms = (binomial(-r, k) * (p * n) ** k * l_p(p, M, r + k, -k - r) for k in range(1, M))
    return -sum(terms) % p**M


def fermionic_l(p, s):
    """Kim's fermionic sum for l_p(s, w^0) at level 1,
    sum_{0<x<p} (-1)^x <x>^(-s) mod p."""
    return sum((-1) ** x * pow(angle(p, 1, x), -s, p) for x in range(1, p)) % p


def wire(p, M, value):
    """A p-adic side known to M digits as printed: the digits of value mod
    p^M, lowest first, and its valuation, M for 0."""
    value %= p**M
    digits = [value // p**i % p for i in range(M)]
    valuation = next((i for i, d in enumerate(digits) if d), M)
    return {"p": p, "precision": M, "digits": digits, "valuation": valuation}


def padic_report(check, params, p, M, lhs, rhs):
    """A p-adic report comparing the int residues lhs and rhs mod p^M."""
    left, right = wire(p, M, lhs), wire(p, M, rhs)
    return {"check": check, "p": p, "params": params, "lhs": left, "rhs": right,
            "precision": M, "match": left == right, "lhs_valuation": left["valuation"]}


def rational_report(check, params, lhs, rhs):
    """An exact report comparing two rationals, each printed as "num/den"."""
    left, right = (f"{q.numerator}/{q.denominator}" for q in (Fraction(lhs), Fraction(rhs)))
    return {"check": check, "p": None, "params": params, "lhs": left, "rhs": right,
            "precision": None, "match": left == right, "lhs_valuation": None}


# The fixed rows of grid's exact suites: distribution's points x = u/v and
# odd moduli f, and powersum's exponents m.
DISTRIBUTION_POINTS = ((0, 1), (1, 2), (1, 3), (-2, 7), (5, 4))
DISTRIBUTION_MODULI = (1, 3, 5, 7)
POWER_SUM_EXPONENTS = range(9)


def _theorem6(p, r, n, M):
    lhs = residue(2 * alt_harmonic_sum(p, n, r), p**M)
    rhs = main_congruence_series(p, M, n, r)
    return padic_report("theorem6", {"p": p, "n": n, "r": r, "M": M}, p, M, lhs, rhs)


def _interpolation(p, n, t, M):
    params = {"p": p, "n": n, "t": t, "M": M}
    return padic_report("interpolation", params, p, M, l_p(p, M, -n, t),
                        interpolation_rhs(p, M, n, t))


def _kummer(p, k):
    params = {"p": p, "k": k, "k2": k + p, "t": 0, "M": 1}
    return padic_report("kummer", params, p, 1, fermionic_l(p, k), fermionic_l(p, k + p))


def distribution_report(n, f, u, v):
    """The distribution report at x = u/v: E_n(x) against
    f^n sum_{a<f} (-1)^a E_n((x + a) / f)."""
    x = Fraction(u, v)
    rhs = f**n * sum((-1) ** a * euler_polynomial(n, (x + a) / f) for a in range(f))
    return rational_report("distribution", {"n": n, "f": f, "x": f"{u}/{v}"},
                           euler_polynomial(n, x), rhs)


def _power_sum(n, m):
    lhs = 2 * sum((-1) ** l * l**m for l in range(n))
    rhs = euler_number(m) - euler_polynomial(m, Fraction(n))
    return rational_report("powersum", {"n": n, "m": m}, lhs, rhs)


def _binomials(r, k, js):
    ratio = rational_report("binomial", {"r": r, "k": k, "identity": "ratio"},
                            Fraction(r * binomial(-r - 1, k), r + k), binomial(-r, k))
    return [ratio] + [
        rational_report("binomial", {"r": r, "k": k, "j": j, "identity": "product"},
                        binomial(-r, k) * binomial(-r - k, j),
                        binomial(-r, k + j) * binomial(k + j, j))
        for j in js
    ]


def reference_reports(primes, rs, ns, M):
    """The reports of ``eulerlp grid`` at these axes, each sorted and
    deduplicated as grid reads it, in grid's order, as parsed JSON."""
    primes, rs, ns = (sorted(set(axis)) for axis in (primes, rs, ns))
    reports = [_theorem6(p, r, n, M) for p in primes for r in rs for n in ns]
    reports += [_interpolation(p, n, t, M) for p in primes for n in ns for t in range(p - 1)]
    reports += [_kummer(p, k) for p in primes for k in rs]
    reports += [distribution_report(n, f, u, v) for n in ns for f in DISTRIBUTION_MODULI
                for u, v in DISTRIBUTION_POINTS]
    reports += [_power_sum(n, m) for n in ns for m in POWER_SUM_EXPONENTS]
    return reports + [report for r in rs for k in rs for report in _binomials(r, k, rs)]


def _axis(text):
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def grid_reference(argv):
    """:func:`reference_reports` of a grid argv, a list of words that gives
    each of --primes, --r, --n and --precision as its own word and value."""
    options = dict(zip(argv[1::2], argv[2::2]))
    axes = [_axis(options[f"--{name}"]) for name in ("primes", "r", "n")]
    return reference_reports(*axes, int(options["--precision"]))


def _csv_cell(text):
    """A CSV cell as its JSON line holds it: None for an empty cell, the
    JSON value of a number, flag or dict, and a "num/den" side as text."""
    if text == "":
        return None
    try:
        return json.loads(text)
    except ValueError:
        return text


def parse_output(text):
    """The printed reports, JSON lines or CSV with a header, as dicts."""
    if text.startswith("check,"):
        return [{key: _csv_cell(cell) for key, cell in row.items()}
                for row in csv.DictReader(io.StringIO(text))]
    return [json.loads(line) for line in text.splitlines()]


def differing(printed, expected):
    """{check: count of printed reports that differ from the reference}."""
    assert len(printed) == len(expected)
    counts = {}
    for got, want in zip(printed, expected):
        if got != want:
            counts[want["check"]] = counts.get(want["check"], 0) + 1
    return counts

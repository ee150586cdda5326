"""l_p(s, w^t) against Kim's fermionic p-adic integral, an oracle that shares
no code with the library's series.

Kim's measure mu_{-1} gives x + p^L Z_p the mass (-1)^x, and its moments
are the Euler numbers, int x^n dmu_{-1} = E_n (T. Kim, "q-Volkenborn
integration", Russ. J. Math. Phys. 9 (2002) 288-299).  On the units,

    l_p(s, w^t) = int_{Z_p^*} w(x)^t <x>^(-s) dmu_{-1}
                = lim_L sum_{0<x<p^L, p not dividing x} (-1)^x w(x)^t <x>^(-s),

and level L = M gives the value mod p^M.  The oracle calls no Euler number,
binomial, Teichmuller lift or series table of the library: its lift is
w(x) = x^(p^(M-1)) mod p^M, and <x> = x / w(x).
"""

from math import ceil

import pytest
from conftest import mutated

from eulerlp import PadicContext, lfunctions, padic_l, teichmuller_power

CASES = ((3, 8), (5, 5), (7, 4), (11, 3), (13, 3))
S_VALUES = tuple(range(-3, 9))


def _label(case):
    return f"p{case[0]}-M{case[1]}"


def riemann_sums(p, M, L):
    """{(t, s): the level-L sum mod p^M} for every t mod p - 1 and s in
    S_VALUES."""
    m = p**M
    sums = [[0] * len(S_VALUES) for _ in range(p - 1)]
    for x in range(1, p**L):
        if x % p == 0:
            continue
        lift = pow(x, p ** (M - 1), m)
        unit_powers = [pow(x * pow(lift, -1, m), -s, m) for s in S_VALUES]
        character = -1 if x % 2 else 1  # (-1)^x w(x)^t, from t = 0 up
        for row in sums:
            for i, u in enumerate(unit_powers):
                row[i] += character * u
            character = character * lift % m
    return {
        (t, s): sums[t][i] % m for t in range(p - 1) for i, s in enumerate(S_VALUES)
    }


def library_values(p, M):
    ctx = PadicContext(p, M)
    return {
        (t, s): padic_l(s, teichmuller_power(t, ctx)).residue
        for t in range(p - 1)
        for s in S_VALUES
    }


def mismatches(p, M, L):
    oracle, library = riemann_sums(p, M, L), library_values(p, M)
    return {key for key in library if oracle[key] != library[key]}


@pytest.mark.parametrize("case", CASES, ids=_label)
def test_level_m_gives_padic_l(case):
    p, M = case
    assert not mismatches(p, M, M)


# negative control: one level short, the sum misses the last digit for
# some (t, s); these counts are out of (p - 1) * 12 values
ONE_LEVEL_SHORT = {(3, 8): 8, (5, 5): 20, (7, 4): 30, (11, 3): 55, (13, 3): 66}


@pytest.mark.parametrize("case", CASES, ids=_label)
def test_one_level_short_falls_short(case):
    p, M = case
    assert len(mismatches(p, M, M - 1)) == ONE_LEVEL_SHORT[case]


@pytest.mark.parametrize("case", CASES, ids=_label)
def test_half_level_suffices_only_for_odd_t(case):
    # x and p^L - x carry opposite signs, so for odd t the level-L sum is
    # right to 2L digits; for even t the pairs do not cancel past L digits
    p, M = case
    wrong = mismatches(p, M, ceil(M / 2))
    assert all(t % 2 == 0 for t, _ in wrong), sorted(wrong)
    assert wrong, "even t should need more than half the levels"


def test_series_mutant_is_caught_at_positive_s():
    # C(-s, 1) with the wrong sign in every binomial row of the series
    p, M = 5, 5
    original = lfunctions._binomial_row

    def mutant(s, terms):
        row = original(s, terms)
        return row[:1] + (-row[1],) + row[2:] if terms > 1 else row

    with mutated(lfunctions, "_binomial_row", mutant):
        wrong = mismatches(p, M, M)
    assert any(s > 0 for _, s in wrong), sorted(wrong)
    assert not mismatches(p, M, M)

"""The p-adic l-function built from alternating partial zeta values.

H_p(s, a|F) expands (-1)^a/2 <a>^{-s} sum_j C(-s,j) (F/a)^j E_j, and
l_p(s, chi) = 2 sum_a chi(a) H_p(s, a|p).  At s = -n these collapse to
twisted Euler-polynomial values, which is the interpolation property shown
below; for exponent 0 twists the values all vanish mod p, the congruence
behind the Kummer-style checks.
"""

from fractions import Fraction

from eulerlp import (
    PadicContext,
    euler_number,
    generalized_euler_number,
    interpolation_check,
    kummer_check,
    padic_l,
    padic_partial_zeta,
    padic_partial_zeta_at_neg,
    teichmuller_power,
)

p, digits = 5, 6
ctx = PadicContext(p, digits)

print(f"p = {p}, all residues mod {p}^{digits} = {ctx.modulus}")
print()
print("series vs closed form for the partial zeta at negative arguments:")
for n in (1, 2, 3):
    for a in (1, 2):
        series = padic_partial_zeta(-n, a, p, ctx)
        closed = padic_partial_zeta_at_neg(n, a, p, ctx)
        print(f"  H_p(-{n}, {a}|{p}): series {series.residue:>6}, "
              f"closed {closed.residue:>6}, equal: {series == closed}")

print()
print("generalized Euler numbers for the quadratic twist w^2:")
chi = teichmuller_power(2, ctx)
for n in range(5):
    value = generalized_euler_number(n, chi)
    print(f"  E_{n},chi = {value}")

print()
print("interpolation: l_p(-n, w^t) = (1 - p^n chi_n(p)) E_(n, chi_n):")
for n in (1, 2, 3, 4):
    for t in range(p - 1):
        report = interpolation_check(n, teichmuller_power(t, ctx))
        assert report.match, report.params
print("  verified for n <= 4 and every twist exponent t")
value = padic_l(-1, teichmuller_power(1, ctx))
expected = ctx.from_rational((1 - Fraction(p)) * euler_number(1))
print(f"  sample: l_p(-1, w^1) = {value}  equals (1-p)E_1 = {expected.residue}")

print()
print("exponent-0 twists: the function is 0 mod p at every integer argument")
chi0 = teichmuller_power(0, PadicContext(p, 1))  # one digit: mod p
row = [padic_l(s, chi0).residue for s in range(1, 9)]
print(f"  l_p(s, w^0) mod {p} for s = 1..8: {row}")
for k in (1, 2, 3):
    report = kummer_check(k, 0, ctx)
    print(f"  l_p({k}) = l_p({k + p}) mod {p}: {report.match}")

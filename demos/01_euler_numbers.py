"""Euler numbers and polynomials in exact rational arithmetic.

The generating function 2 e^{xt} / (e^t + 1) defines the Euler polynomials
E_n(x); the Euler numbers are E_n = E_n(0).  Everything below is computed
with Fractions, so every printed identity is an exact equality.
"""

from fractions import Fraction

from eulerlp import (
    distribution_report,
    euler_numbers,
    euler_polynomial,
    euler_polynomial_value,
)

print("Euler numbers E_0..E_10:")
for n, value in enumerate(euler_numbers(10)):
    print(f"  E_{n:<2} = {value}")
print("(odd-index values alternate, even-index values vanish for n >= 2,")
print(" and every denominator is a power of two)")

print()
print("Euler polynomials are monic with x^{n-1} coefficient -n/2:")
for n in range(5):
    poly = euler_polynomial(n)
    terms = " + ".join(f"({c})x^{i}" for i, c in enumerate(poly) if c)
    print(f"  E_{n}(x) = {terms or '1'}")

print()
print("Two defining identities, checked at x = 3/7:")
x = Fraction(3, 7)
for n in range(6):
    lhs = euler_polynomial_value(n, x + 1) + euler_polynomial_value(n, x)
    print(f"  E_{n}(x+1) + E_{n}(x) = {lhs}  (should be 2 x^{n} = {2 * x**n})")
for n in range(4):
    lhs = euler_polynomial_value(n, 1 - x)
    rhs = (-1) ** n * euler_polynomial_value(n, x)
    assert lhs == rhs
print("  reflection E_n(1-x) = (-1)^n E_n(x) holds for n < 4 as well")

print()
print("Distribution relation E_n(x) = f^n sum_a (-1)^a E_n((x+a)/f), odd f:")
for f in (1, 3, 5, 7):
    ok = all(distribution_report(n, f, x).match for n in range(9))
    print(f"  f = {f}: {'exact for n < 9' if ok else 'FAILED'}")

"""A quick tour of the fixed-precision p-adic integers.

Values are elements of Z_p known modulo p^N.  Arithmetic never overclaims
digits: multiplication can gain precision through valuations, reduction can
forget digits, and only units can be inverted.  The principal-unit
projection <a> = a / omega(a) is written with these operators.
"""

from fractions import Fraction

from eulerlp import PadicContext, teichmuller

ctx = PadicContext(7, 6)
print(f"working in Z_7 with {ctx.precision} digits (modulus {ctx.modulus})")

half = ctx.from_rational(Fraction(1, 2))
print(f"1/2      -> {half}   digits {half.digits()}")
third = ctx.from_rational(Fraction(-11, 20))
print(f"-11/20   -> {third}   digits {third.digits()}")
print(f"product  -> {half * third}  (equals the embedding of -11/40: "
      f"{half * third == ctx.from_rational(Fraction(-11, 40))})")

print()
print("Teichmuller lifts: the unique (p-1)-th root of unity above each unit")
for a in range(1, 7):
    w = teichmuller(a, ctx)
    print(f"  omega({a}) = {w.residue:>6}   omega^6 = {(w ** 6).residue}, "
          f"omega = {a} mod 7: {w.residue % 7 == a}")

print()
print("the principal-unit projection <a> = a / omega(a) is 1 mod p:")
for a in (2, 3, 12):
    u = ctx.from_int(a) * teichmuller(a, ctx) ** -1
    print(f"  <{a}> = {u.residue:>6}   (mod 7 it is {u.residue % 7})")

print()
print("precision bookkeeping:")
x = ctx.from_int(49)  # valuation 2
coarse = ctx.from_int(10).reduce(3)
print(f"  49 has valuation {x.valuation}; a unit known to 3 digits times 49")
print(f"  is known to {(coarse * x).precision} digits (3 + 2, capped at {ctx.precision})")
try:
    ctx.from_int(14).inverse()
except ZeroDivisionError as exc:
    print(f"  inverting the non-unit 14 fails loudly: {exc}")

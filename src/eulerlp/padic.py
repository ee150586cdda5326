"""Fixed-precision p-adic integer arithmetic.

A :class:`PadicNumber` is an element of Z_p known modulo p^M, where M is at
most the precision N of its :class:`PadicContext`.  Arithmetic tracks how
many base-p digits of a result are actually known, so precision can shrink
but is never overclaimed, and division is restricted to units (dividing by
p is a separate, explicit operation).

Library code computes on plain int residues and wraps each value it returns
once, at the precision it is known to; the operators are for callers.
Both classes are immutable :class:`Value` objects, as are characters, grid
configs and reports.
"""

from math import comb, isqrt
from operator import attrgetter

_set = object.__setattr__  # how __init__ writes the slots of a Value


class Value:
    """Immutable ``__slots__`` object compared by value.  ``__match_args__``
    names its fields: the constructor arguments, in order, and what equality,
    hash, repr and pickling read.  Instances of different classes are never
    equal."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls.__match_args__)  # _key(obj): field values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


def is_prime(n: int) -> bool:
    """Trial-division primality test; the primes used here are small."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


class PadicContext(Value):
    """Working ring Z/p^N standing in for Z_p, for an odd prime p."""

    __slots__ = ("p", "precision", "modulus", "_hash")
    __match_args__ = ("p", "precision")

    def __init__(self, p: int, precision: int):
        if p < 3 or not is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        if precision < 1:
            raise ValueError("precision must be >= 1")
        _set(self, "p", p)
        _set(self, "precision", precision)
        _set(self, "modulus", p**precision)  # p^N, computed once
        _set(self, "_hash", hash((p, precision)))  # lru caches key on contexts

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not PadicContext:
            return NotImplemented
        return self is other or (self.p == other.p and self.precision == other.precision)

    def from_int(self, value: int) -> "PadicNumber":
        return PadicNumber(self, value, self.precision)

    def from_rational(self, value: "Fraction | int") -> "PadicNumber":
        """Embed an int or a Fraction with denominator prime to p, at full precision;
        the library embeds its own int pairs with ``pow``, without this."""
        num, den = value.numerator, value.denominator
        if den % self.p == 0:
            raise ValueError(
                f"denominator of {value} is divisible by {self.p}; not a {self.p}-adic integer"
            )
        return PadicNumber(self, num * pow(den, -1, self.modulus), self.precision)


class PadicNumber(Value):
    """An element of Z_p asserted only modulo p^precision."""

    __slots__ = __match_args__ = ("context", "residue", "precision")

    def __init__(self, context: PadicContext, residue: int, precision: int):
        if not 1 <= precision <= context.precision:
            raise ValueError(f"precision must be in 1..{context.precision}, got {precision}")
        _set(self, "context", context)
        full = precision == context.precision
        _set(self, "residue", residue % (context.modulus if full else context.p**precision))
        _set(self, "precision", precision)

    # ------------------------------------------------------------- inspection

    @property
    def valuation(self) -> int:
        """Power of p dividing the residue.

        Exact while smaller than the known precision; a zero residue yields
        the precision itself, which is only a lower bound for the valuation
        of the represented value.
        """
        return self.as_json_dict()["valuation"]

    @property
    def is_zero(self) -> bool:
        """True when indistinguishable from 0 at the known precision."""
        return self.residue == 0

    def digits(self) -> list[int]:
        """Little-endian base-p digits, one per known digit."""
        return self.as_json_dict()["digits"]

    def as_json_dict(self) -> dict:
        return _wire_dict(self.context.p, self.precision, self.residue)

    def __repr__(self) -> str:
        return f"{self.residue} + O({self.context.p}^{self.precision})"

    # ------------------------------------------------------------- arithmetic

    def _coerce(self, other):
        if isinstance(other, PadicNumber):
            if other.context != self.context:
                raise ValueError("operands come from different p-adic contexts")
            return other
        if isinstance(other, int):
            return self.context.from_int(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        prec = min(self.precision, other.precision)
        return PadicNumber(self.context, self.residue + other.residue, prec)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        prec = min(self.precision, other.precision)
        return PadicNumber(self.context, self.residue - other.residue, prec)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return PadicNumber(self.context, -self.residue, self.precision)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # absolute error of a product: known digits of one factor shifted by
        # the valuation of the other, capped by the context precision
        prec = min(
            self.context.precision,
            self.precision + other.valuation,
            other.precision + self.valuation,
        )
        return PadicNumber(self.context, self.residue * other.residue, prec)

    __rmul__ = __mul__

    def inverse(self) -> "PadicNumber":
        """Multiplicative inverse; defined for units only."""
        if self.valuation > 0:
            raise ZeroDivisionError(
                f"{self!r} has positive valuation; only units can be inverted"
            )
        inv = pow(self.residue, -1, self.context.p ** self.precision)
        return PadicNumber(self.context, inv, self.precision)

    def __pow__(self, exponent: int) -> "PadicNumber":
        if exponent == 0:
            return PadicNumber(self.context, 1, self.precision)
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = PadicNumber(self.context, 1, self.precision)
        base, e = self, exponent
        while True:
            if e & 1:
                result = result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    # ---------------------------------------------------------- precision ops

    def reduce(self, digits: int) -> "PadicNumber":
        """Forget digits beyond `digits`; cannot claim more than are known."""
        if digits > self.precision:
            raise ValueError(f"cannot raise precision from {self.precision} to {digits}")
        return PadicNumber(self.context, self.residue, digits)

    def div_p(self, k: int = 1) -> "PadicNumber":
        """Exact division by p^k; needs valuation >= k and costs k digits."""
        if k < 0:
            raise ValueError("k must be >= 0")
        if k == 0:
            return self
        if self.valuation < k:
            raise ValueError(f"valuation {self.valuation} < {k}; quotient would leave Z_p")
        if self.precision - k < 1:
            raise ValueError("no known digits would remain after the shift")
        return PadicNumber(self.context, self.residue // self.context.p**k, self.precision - k)


def _wire_dict(p: int, precision: int, residue: int) -> dict:
    """The JSON form of any int residue mod p^precision: its little-endian
    base-p digits, and the valuation read off them (precision if all are 0)."""
    digits = []
    for _ in range(precision):
        residue, d = divmod(residue, p)
        digits.append(d)
    valuation = 0
    while valuation < precision and not digits[valuation]:
        valuation += 1
    return {"p": p, "precision": precision, "digits": digits, "valuation": valuation}


def teichmuller(a: int, ctx: PadicContext) -> PadicNumber:
    """Teichmuller lift of a unit a: the (p-1)-th root of unity with
    omega(a) = a mod p, in closed form omega(a) = a^(p^(N-1)) mod p^N.

    a = omega(a) <a> with <a> = 1 mod p, omega(a)^p = omega(a), and each
    p-th power of a principal unit fixes one more digit of 1."""
    if a % ctx.p == 0:
        raise ValueError(f"{a} is divisible by {ctx.p}; the lift needs a unit")
    return ctx.from_int(pow(a, ctx.p ** (ctx.precision - 1), ctx.modulus))


def angle(a: int, ctx: PadicContext) -> PadicNumber:
    """Principal-unit projection <a> = a / omega(a); congruent to 1 mod p."""
    return ctx.from_int(a * pow(teichmuller(a, ctx).residue, -1, ctx.modulus))


def binomial(z: int, j: int) -> int:
    """Binomial coefficient C(z, j) for any integer z, including negative z,
    where it equals (-1)^j C(j - z - 1, j)."""
    if j < 0:
        raise ValueError("j must be >= 0")
    if z >= 0:
        return comb(z, j)
    return (-1) ** j * comb(j - z - 1, j)

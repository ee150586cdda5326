"""Dirichlet characters with values in Z_p: the powers omega^t of the
Teichmuller character, the only characters the l-function is evaluated at.
A character is an immutable value made of its context and its exponent
alone; chi(a) is an int residue mod p^N, a root of unity of order dividing
p - 1, or 0, read from the context's one Teichmuller table as
omega(a)^t = zeta^(t ind a mod p-1), with zeta = omega(g), g a primitive root;
``padic.teichmuller`` is the closed form the tests check the table against.
"""

from functools import lru_cache

from .padic import PadicContext, Value, _set, is_prime, teichmuller


class DirichletCharacter(Value):
    """The character omega^t in a context Z/p^N, t reduced mod p - 1.

    ``conductor`` and ``values`` are derived from (context, t), and equality
    is (context, t).  chi(a) depends only on a mod conductor and vanishes
    when gcd(a, conductor) > 1.  The conductor is p, or 1 for t = 0, in
    which case the character takes the value 1 at p too.
    """

    __slots__ = ("context", "t", "conductor", "values")
    __match_args__ = ("context", "t")

    def __init__(self, context: PadicContext, t: int):
        t %= context.p - 1
        _set(self, "context", context)
        _set(self, "t", t)
        _set(self, "conductor", context.p if t else 1)
        _set(self, "values", _values(t, context))

    def __call__(self, a: int) -> int:
        return self.values[a % self.conductor]

    def descriptor(self) -> dict:
        """Wire form used in CLI output and JSON reports."""
        return {"p": self.context.p, "kind": "teichmuller", "t": self.t}

    def twist(self, t: int) -> "DirichletCharacter":
        """Pointwise product with omega^t."""
        return teichmuller_power(self.t + t, self.context)


def teichmuller_power(t: int, ctx: PadicContext) -> DirichletCharacter:
    """The character a -> omega(a)^t of modulus p: DirichletCharacter(ctx, t)."""
    return DirichletCharacter(ctx, t)


def _primitive_root(p: int) -> int:
    """The least g >= 2 with g^((p-1)/q) != 1 mod p for each prime q | p - 1:
    the least primitive root mod p, tested for every odd prime p < 2000."""
    qs = [q for q in range(2, p) if (p - 1) % q == 0 and is_prime(q)]
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


@lru_cache(maxsize=None)
def _teichmuller_table(ctx: PadicContext) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(zeta^i mod p^N for i < p - 1, ind a for 0 < a < p), zeta = omega(g) the
    context's one lift, g = _primitive_root(p), g^(ind a) = a mod p, so that
    omega(a)^t = zeta^(t ind a mod p-1) (Washington, GTM 83, 5.1)."""
    p, m, g = ctx.p, ctx.modulus, _primitive_root(ctx.p)
    powers, index, zeta = [1], [0] * p, teichmuller(g, ctx).residue
    for i in range(1, p - 1):
        powers.append(powers[-1] * zeta % m)
        index[pow(g, i, p)] = i
    return tuple(powers), tuple(index)


@lru_cache(maxsize=None)
def _values(t: int, ctx: PadicContext) -> tuple[int, ...]:
    """chi(a) mod p^N for a < conductor, at reduced exponent t: for a unit
    a, omega(a)^t = zeta^(t ind a mod p-1), read from the context's table."""
    if t == 0:
        return (1,)
    powers, index = _teichmuller_table(ctx)
    return (0,) + tuple(powers[t * i % (ctx.p - 1)] for i in index[1:])

"""Dirichlet characters with values in Z_p: the powers omega^t of the
Teichmuller character, the only characters the l-function is evaluated at.
A character is its context and its exponent; chi(a) is an int residue mod
p^N, a root of unity of order dividing p - 1, or 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .padic import PadicContext, teichmuller


@dataclass(frozen=True)
class DirichletCharacter:
    """The character omega^t in a context Z/p^N, t reduced mod p - 1.

    ``conductor`` and ``values`` are derived from (context, t), and equality
    is (context, t).  chi(a) depends only on a mod conductor and vanishes
    when gcd(a, conductor) > 1.  The conductor is p, or 1 for t = 0, in
    which case the character takes the value 1 at p too.
    """

    context: PadicContext
    t: int
    conductor: int = field(init=False, compare=False, repr=False)
    values: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        t = self.t % (self.context.p - 1)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "conductor", self.context.p if t else 1)
        object.__setattr__(self, "values", _values(t, self.context))

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


@lru_cache(maxsize=None)
def _values(t: int, ctx: PadicContext) -> tuple[int, ...]:
    """chi(a) mod p^N for a < conductor, at reduced exponent t; the
    Teichmuller lifts are computed once per (t, ctx)."""
    if t == 0:
        return (1,)
    m = ctx.modulus
    return (0,) + tuple(pow(teichmuller(a, ctx).residue, t, m) for a in range(1, ctx.p))

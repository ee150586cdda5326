"""Dirichlet characters with values in Z_p: the powers omega^t of the
Teichmuller character, the only characters the l-function is evaluated at.
Values are roots of unity of order dividing p - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .padic import PadicContext, PadicNumber, teichmuller


@dataclass(frozen=True)
class DirichletCharacter:
    """The character omega^t, evaluated through its primitive core.

    chi(a) depends only on a mod conductor and vanishes when
    gcd(a, conductor) > 1.  The conductor is p, or 1 for t = 0, in which
    case the character takes the value 1 at p too.
    """

    context: PadicContext
    conductor: int
    values: tuple[PadicNumber, ...]
    teich_exponent: int

    def __call__(self, a: int) -> PadicNumber:
        return self.values[a % self.conductor]

    def descriptor(self) -> dict:
        """Wire form used in CLI output and JSON reports."""
        return {"p": self.context.p, "kind": "teichmuller", "t": self.teich_exponent}

    def twist(self, t: int) -> "DirichletCharacter":
        """Pointwise product with omega^t."""
        return teichmuller_power(self.teich_exponent + t, self.context)


def teichmuller_power(t: int, ctx: PadicContext) -> DirichletCharacter:
    """The character a -> omega(a)^t of modulus p.

    The exponent is reduced mod p - 1; exponent 0 gives conductor 1 (the
    character is then 1 everywhere, including at p), otherwise the
    conductor is p.  Characters are immutable and built once per reduced
    exponent and context.
    """
    return _teichmuller_power(t % (ctx.p - 1), ctx)


@lru_cache(maxsize=None)
def _teichmuller_power(t: int, ctx: PadicContext) -> DirichletCharacter:
    p = ctx.p
    if t == 0:
        return DirichletCharacter(ctx, 1, (ctx.one(),), 0)
    values = [ctx.zero()]
    for a in range(1, p):
        values.append(ctx.from_int(pow(teichmuller(a, ctx).residue, t, ctx.modulus)))
    return DirichletCharacter(ctx, p, tuple(values), t)

"""Precision bookkeeping: the digits a result claims must not depend on the
digits its operands do not know.

Each operand x known mod p^k is paired with a completion x + p^k u, known at
the full context precision N, where u fills in the unknown digits at random.
An operation applied to the known operands must agree with the same
operation applied to the completions mod p^(claimed precision).
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerlp import PadicContext, PadicNumber

contexts = st.builds(PadicContext, st.sampled_from((3, 5, 7, 11)), st.integers(1, 12))


@st.composite
def operand(draw, ctx, unit):
    """(known, completion): a value known mod p^k with valuation v <= k (v = 0
    for a unit), and the same value with its N - k unknown digits drawn at
    random."""
    p, N = ctx.p, ctx.precision
    k = draw(st.integers(1, N))
    if unit:
        residue = draw(st.integers(1, p - 1)) + p * draw(st.integers(0, p ** (k - 1) - 1))
    else:
        v = draw(st.integers(0, k))
        residue = p**v * draw(st.integers(0, p ** (k - v) - 1)) % p**k
    unknown = draw(st.integers(0, p ** (N - k) - 1))
    return PadicNumber(ctx, residue, k), PadicNumber(ctx, residue + p**k * unknown, N)


def operands(count, unit=False):
    return contexts.flatmap(lambda ctx: st.tuples(*[operand(ctx, unit)] * count))


def assert_claimed_digits_hold(known: PadicNumber, completed: PadicNumber) -> None:
    digits = known.precision
    assert completed.precision >= digits
    assert (known.residue - completed.residue) % known.context.p**digits == 0


bookkeeping = settings(max_examples=150, deadline=None)


@bookkeeping
@given(operands(2))
def test_add(pair):
    (x, xc), (y, yc) = pair
    assert_claimed_digits_hold(x + y, xc + yc)


@bookkeeping
@given(operands(2))
def test_sub(pair):
    (x, xc), (y, yc) = pair
    assert_claimed_digits_hold(x - y, xc - yc)
    assert_claimed_digits_hold(-x, -xc)


@bookkeeping
@given(operands(2))
def test_mul(pair):
    (x, xc), (y, yc) = pair
    assert_claimed_digits_hold(x * y, xc * yc)


@bookkeeping
@given(operands(1, unit=True), st.integers(1, 3))
def test_inverse(pair, exponent):
    ((x, xc),) = pair
    assert_claimed_digits_hold(x.inverse(), xc.inverse())
    assert_claimed_digits_hold(x**-exponent, xc**-exponent)


@bookkeeping
@given(operands(1), st.integers(0, 6))
def test_pow(pair, exponent):
    ((x, xc),) = pair
    assert_claimed_digits_hold(x**exponent, xc**exponent)


"""The one binary-powering routine, ``cyclo.power``, against repeated
multiplication on every type that raises to a power: field elements,
q-series (whose squares go through the ``f * f`` path) and relation
polynomials (through ``parse_poly`` exponents)."""

import random
from fractions import Fraction

import pytest

from mfring.cyclo import cyclo_context, power
from mfring.exprs import parse_poly, parse_scalar
from mfring.qseries import QSeries

from _series import series_of

EXPONENTS = range(10)


class Counted:
    """x^exponent of a symbol x: a product adds exponents.  Logs whether each
    product multiplies one object by itself, and stops a runaway loop."""

    def __init__(self, exponent, log):
        self.exponent, self.log = exponent, log

    def __mul__(self, other):
        self.log.append(self is other)
        assert len(self.log) < 32, "power did not stop"
        return Counted(self.exponent + other.exponent, self.log)


def _products(n: int) -> int:
    """Squarings while bits remain, plus one product per further set bit."""
    return 0 if n == 0 else n.bit_length() - 1 + bin(n).count("1") - 1


@pytest.mark.parametrize("n", range(70))
def test_power_of_a_symbol_and_its_product_count(n):
    log = []
    got = power(Counted(1, log), n, Counted(0, log))
    assert got.exponent == n
    assert len(log) == _products(n)
    # every square multiplies one object by itself
    assert sum(log) == max(n.bit_length() - 1, 0)


@pytest.mark.parametrize("n", [-1, -2, -7, -(2**70)])
def test_a_negative_exponent_raises_at_once(n):
    log = []
    with pytest.raises(ValueError):
        power(Counted(1, log), n, Counted(0, log))
    assert log == []
    ctx = cyclo_context(5)
    with pytest.raises(ValueError):
        ctx.zeta_power(1) ** n
    with pytest.raises(ValueError):
        QSeries.one(ctx, 4) ** n


def _random_element(rng, ctx):
    return sum((ctx.zeta_power(i) * Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                for i in range(ctx.degree)), ctx.zero)


@pytest.mark.parametrize("L", [1, 3, 4, 5, 12])
def test_field_element_powers_equal_repeated_products(L):
    rng = random.Random(L)
    ctx = cyclo_context(L)
    for _ in range(4):
        x = _random_element(rng, ctx)
        want = ctx.one
        for n in EXPONENTS:
            assert x**n == want, (L, n)
            want = want * x


@pytest.mark.parametrize("L", [1, 4, 5, 12])
def test_series_powers_equal_repeated_products(L):
    rng = random.Random(100 + L)
    ctx = cyclo_context(L)
    for prec in (1, 2, 7):
        f = series_of(ctx, [_random_element(rng, ctx) for _ in range(prec)])
        copy = QSeries(ctx, f.nums, f.den)
        assert f * f == f * copy  # the squaring path against the general product
        want = QSeries.one(ctx, prec)
        for n in EXPONENTS:
            assert f**n == want, (L, prec, n)
            want = want * copy


def test_polynomial_exponents_equal_repeated_products():
    ctx = cyclo_context(10)
    names = ["x", "y"]
    for base in ("(x + 2*y - z10^3)", "(x*y/3 + z10)", "(2*z5 - 1)", "x"):
        for n in EXPONENTS:
            product = "*".join([base] * n) or "1"
            got = parse_poly(f"{base}^{n}", names, ctx)
            assert got == parse_poly(product, names, ctx), (base, n)


def test_powers_of_zero():
    ctx = cyclo_context(4)
    assert parse_poly("(x - x)^3", ["x"], ctx) == {}
    assert parse_poly("(x - x)^0", ["x"], ctx) == {(0,): ctx.one}
    assert parse_scalar("0^2", ctx) == ctx.zero
    assert parse_scalar("0^0", ctx) == ctx.one
    assert ctx.zero**0 == ctx.one and ctx.zero**5 == ctx.zero
    assert QSeries.zero(ctx, 3) ** 0 == QSeries.one(ctx, 3)

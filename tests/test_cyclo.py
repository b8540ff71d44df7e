import random
from fractions import Fraction
from math import gcd

import pytest

from mfring.cyclo import (
    cyclo_context,
    cyclotomic_polynomial,
    render_cyclo,
    root_of_unity,
)
from mfring.errors import ConductorMismatch


def _phi_bruteforce(n):
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_poly_small_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 22])
def test_degree_is_euler_phi_and_divides_x_L_minus_1(L):
    poly = cyclotomic_polynomial(L)
    assert len(poly) - 1 == _phi_bruteforce(L)
    # product over all divisors reassembles x^L - 1 exactly
    acc = [1]
    for d in range(1, L + 1):
        if L % d == 0:
            acc = _poly_mul(acc, list(cyclotomic_polynomial(d)))
    want = [0] * (L + 1)
    want[0], want[L] = -1, 1
    assert acc == want


def test_roots_of_unity():
    c4 = cyclo_context(4)
    assert root_of_unity(c4, 1, 2) == -1
    assert root_of_unity(c4, 1, 4).coords == (Fraction(0), Fraction(1))
    c12 = cyclo_context(12)
    z = root_of_unity(c12, 1, 6)
    assert z == c12.zeta_power(2)
    with pytest.raises(ConductorMismatch):
        root_of_unity(c4, 1, 3)


@pytest.mark.parametrize("L,b", [(4, 4), (12, 6), (10, 10), (12, 3)])
def test_root_of_unity_orders(L, b):
    ctx = cyclo_context(L)
    for a in range(1, b):
        if gcd(a, b) != 1:
            continue
        z = root_of_unity(ctx, a, b)
        assert z**b == ctx.one
        for m in range(1, b):
            assert z**m != ctx.one


def test_field_ops_examples():
    c4 = cyclo_context(4)
    i = root_of_unity(c4, 1, 4)
    x = c4.one + i
    assert x * (c4.one - i) == 2
    assert x * x.invert() == c4.one
    assert x + c4.zero == x
    with pytest.raises(ZeroDivisionError):
        c4.zero.invert()


def _random_element(rng, ctx):
    return ctx.reduce([Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                       for _ in range(ctx.degree)])


@pytest.mark.parametrize("L", [4, 10, 12])
def test_inverse_law_random(L):
    rng = random.Random(20240 + L)
    ctx = cyclo_context(L)
    for _ in range(25):
        x = _random_element(rng, ctx)
        if x.is_zero():
            continue
        assert x * x.invert() == ctx.one


def test_conjugation():
    c4 = cyclo_context(4)
    i = root_of_unity(c4, 1, 4)
    assert i.conj() == -i
    assert c4.from_rational(Fraction(3, 2)).conj() == Fraction(3, 2)
    rng = random.Random(7)
    c12 = cyclo_context(12)
    for _ in range(25):
        x, y = _random_element(rng, c12), _random_element(rng, c12)
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()


def test_rendering():
    c12 = cyclo_context(12)
    x = c12.from_rational(Fraction(1, 2)) - c12.zeta_power(2) * 3
    assert render_cyclo(x) == "1/2 - 3*z12^2"
    assert render_cyclo(c12.zero) == "0"
    assert render_cyclo(-c12.one) == "-1"
    assert render_cyclo(c12.zeta_power(1)) == "z12"

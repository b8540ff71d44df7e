import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfring.cyclo import (
    CycloNum,
    cyclo_context,
    cyclotomic_polynomial,
    embed,
    multiplication_matrix,
    render_cyclo,
    root_of_unity,
)
from mfring.errors import ConductorMismatch

from _series import conj


def _reduce(ctx, raw):
    """sum_i raw[i] z^i for rationals raw[i], as an element of ctx."""
    return sum((ctx.zeta_power(i) * x for i, x in enumerate(raw) if x), ctx.zero)


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


def _mobius_product(L):
    """Phi_L = prod_{d | L} (x^d - 1)^mu(L/d): the factors with mu = 1 multiplied,
    then the ones with mu = -1 divided out, each division exact."""
    def mu(n):
        out, p = 1, 2
        while n > 1:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                out = -out
            p += 1
        return out

    divisors = [d for d in range(1, L + 1) if L % d == 0]
    poly = [1]
    for d in divisors:
        if mu(L // d) == 1:
            poly = [-c for c in poly] + [0] * d
            for i, c in enumerate(poly[:len(poly) - d]):
                poly[i + d] -= c  # poly * (x^d - 1)
    for d in divisors:
        if mu(L // d) == -1:
            poly = list(poly)
            quo = [0] * (len(poly) - d)
            for i in range(len(poly) - 1, d - 1, -1):
                quo[i - d], poly[i - d] = poly[i], poly[i - d] + poly[i]
            assert not any(poly[:d])
            poly = quo
    return tuple(poly)


def test_cyclotomic_polynomial_matches_the_divisor_product():
    for L in list(range(1, 301)) + [2520]:
        assert cyclotomic_polynomial(L) == _mobius_product(L), L


def test_roots_of_unity():
    c4 = cyclo_context(4)
    assert root_of_unity(c4, 1, 2) == -1
    i = root_of_unity(c4, 1, 4)
    assert (i.den, i.nums) == (1, (0, 1))
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
    return _reduce(ctx, [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
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


_INVERT_CONDUCTORS = (3, 5, 7, 8, 9, 12, 15, 16, 20, 21, 60)


@st.composite
def _nonzero_elements(draw):
    ctx = cyclo_context(draw(st.sampled_from(_INVERT_CONDUCTORS)))
    rationals = st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**20))
    coords = draw(st.lists(st.one_of(st.just(Fraction(0)), rationals),
                           min_size=ctx.degree, max_size=ctx.degree))
    x = _reduce(ctx, coords)
    return x if not x.is_zero() else ctx.zeta_power(1) + 2


@settings(max_examples=80, deadline=None)
@given(_nonzero_elements())
def test_inverse_law_by_fraction_free_elimination(x):
    y = x.invert()
    assert x * y == x.ctx.one
    assert y * x == x.ctx.one


def test_multiplication_matrix_rows_are_the_products_with_powers_of_zeta():
    ctx = cyclo_context(12)
    x = ctx.from_rational(Fraction(1, 6)) - ctx.zeta_power(3) * Fraction(3, 4)
    den, rows = multiplication_matrix(x)
    assert den == 12
    for k, row in enumerate(rows):
        assert CycloNum(ctx, row, den) == x * ctx.zeta_power(k)


def test_embed_sends_zeta_m_to_the_matching_power_of_zeta_l():
    c4, c12 = cyclo_context(4), cyclo_context(12)
    i = root_of_unity(c4, 1, 4)
    assert embed(i, c12) == root_of_unity(c12, 1, 4) == c12.zeta_power(3)
    x = c4.from_rational(Fraction(3, 2)) - i * 5
    y = c4.from_rational(-7) + i * Fraction(1, 3)
    assert embed(x * y, c12) == embed(x, c12) * embed(y, c12)
    assert embed(x.invert(), c12) == embed(x, c12).invert()


def test_conjugation():
    c4 = cyclo_context(4)
    i = root_of_unity(c4, 1, 4)
    assert conj(i) == -i
    assert conj(c4.from_rational(Fraction(3, 2))) == Fraction(3, 2)
    rng = random.Random(7)
    c12 = cyclo_context(12)
    for _ in range(25):
        x, y = _random_element(rng, c12), _random_element(rng, c12)
        assert conj(conj(x)) == x
        assert conj(x * y) == conj(x) * conj(y)
        assert conj(x + y) == conj(x) + conj(y)


def test_rendering():
    c12 = cyclo_context(12)
    x = c12.from_rational(Fraction(1, 2)) - c12.zeta_power(2) * 3
    assert render_cyclo(x) == "1/2 - 3*z12^2"
    assert render_cyclo(c12.zero) == "0"
    assert render_cyclo(-c12.one) == "-1"
    assert render_cyclo(c12.zeta_power(1)) == "z12"
    assert render_cyclo(-c12.zeta_power(3)) == "-z12^3"
    assert render_cyclo(c12.one - c12.zeta_power(1)) == "1 - z12"
    assert render_cyclo(c12.zeta_power(2) * Fraction(-1, 2)) == "-1/2*z12^2"


def _render_by_fractions(x):
    """The canonical text of x, rebuilt term by term from Fraction coordinates."""
    sym = f"z{x.ctx.L}"
    parts = []
    for i, c in enumerate(Fraction(n, x.den) for n in x.nums):
        if not c:
            continue
        mag = str(abs(c))
        if i:
            zpart = sym if i == 1 else f"{sym}^{i}"
            mag = zpart if mag == "1" else f"{mag}*{zpart}"
        sign = ("-" if c < 0 else "") if not parts else ("- " if c < 0 else "+ ")
        parts.append(sign + mag)
    return " ".join(parts) or "0"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 3, 4, 5, 12, 15]), st.sampled_from([1, 2, 6, 720, 3 * 2**70]),
       st.data())
def test_rendering_equals_the_fraction_rendering(L, den, data):
    """Coordinates zero, small, beyond 2^64, or dividing den (value +-1 or +-1/k)."""
    ctx = cyclo_context(L)
    coordinate = st.one_of(st.just(0), st.integers(-30, 30), st.integers(2**64, 2**100),
                           st.integers(-(2**100), -(2**64)),
                           st.sampled_from([den, -den, den // 2, -(den // 3)]))
    nums = data.draw(st.lists(coordinate, min_size=ctx.degree, max_size=ctx.degree))
    x = CycloNum(ctx, nums, den)
    assert render_cyclo(x) == _render_by_fractions(x)

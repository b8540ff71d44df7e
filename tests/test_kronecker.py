"""The packed series product against the schoolbook product it replaced.

`schoolbook_mul` is the reference: a double loop over coefficient pairs,
each a CycloNum product.  Every test compares exactly, coordinate by
coordinate, so a slot overflow or a wrong fold shows as a mismatch.
"""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfring.cyclo import cyclo_context
from mfring.qseries import QSeries

from _series import conj, series_of

CONDUCTORS = (1, 2, 3, 4, 5, 7, 8, 10, 12)


def _reduce(ctx, raw):
    """sum_i raw[i] z^i for rationals raw[i], as an element of ctx."""
    return sum((ctx.zeta_power(i) * x for i, x in enumerate(raw) if x), ctx.zero)


def schoolbook_mul(f: QSeries, g: QSeries) -> QSeries:
    p = min(f.prec, g.prec)
    fc, gc = f.coeffs, g.coeffs  # built on each access, so read once
    out = [f.ctx.zero] * p
    for i in range(p):
        a = fc[i]
        if a.is_zero():
            continue
        for j in range(p - i):
            b = gc[j]
            if not b.is_zero():
                out[i + j] = out[i + j] + a * b
    return series_of(f.ctx, out)


def schoolbook_pow(f: QSeries, n: int) -> QSeries:
    out = QSeries.one(f.ctx, f.prec)
    for _ in range(n):
        out = schoolbook_mul(out, f)
    return out


# numerators from small to near 2^256, so the slot width varies widely
_numerators = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**40), 2**40),
    st.integers(-(2**256), 2**256),
)
_denominators = st.one_of(st.just(1), st.integers(1, 12), st.integers(1, 2**64))
_rationals = st.builds(Fraction, _numerators, _denominators)


@st.composite
def series(draw, ctx, prec=None):
    if prec is None:
        prec = draw(st.integers(1, 12))
    sparse = st.one_of(st.just(Fraction(0)), _rationals)  # zero coefficients are common
    coeffs = [_reduce(ctx, draw(st.lists(sparse, min_size=ctx.degree, max_size=ctx.degree)))
              for _ in range(prec)]
    return series_of(ctx, coeffs)


@st.composite
def series_pair(draw):
    ctx = cyclo_context(draw(st.sampled_from(CONDUCTORS)))
    return draw(series(ctx)), draw(series(ctx))


@settings(max_examples=150, deadline=None)
@given(series_pair())
def test_product_matches_schoolbook(pair):
    f, g = pair
    got = f * g
    assert got.prec == min(f.prec, g.prec)
    assert got.coeffs == schoolbook_mul(f, g).coeffs


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.data())
def test_precision_one_and_unequal_precisions(L, data):
    ctx = cyclo_context(L)
    f = data.draw(series(ctx, prec=1))
    g = data.draw(series(ctx))
    assert (f * g).coeffs == schoolbook_mul(f, g).coeffs
    assert (g * f).coeffs == schoolbook_mul(g, f).coeffs
    h = data.draw(series(ctx, prec=g.prec + data.draw(st.integers(1, 6))))
    assert (g * h).coeffs == schoolbook_mul(g, h).coeffs
    assert (g * h).prec == g.prec


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.integers(0, 5), st.data())
def test_power_matches_repeated_schoolbook(L, n, data):
    f = data.draw(series(cyclo_context(L), prec=data.draw(st.integers(1, 8))))
    assert (f ** n).coeffs == schoolbook_pow(f, n).coeffs


@settings(max_examples=40, deadline=None)
@given(series_pair(), st.integers(2, 4))
def test_v_operator_and_lowered_products(pair, h):
    f, g = pair
    fv, gv = f.v_operator(h), g.v_operator(h)
    assert (fv * gv).coeffs == schoolbook_mul(fv, gv).coeffs
    assert (fv * gv) == (f * g).v_operator(h)
    if f.prec >= 2 and not f.coeffs[1].is_zero():
        # lowered needs 1 + a*q + ... with a != 0
        f1 = series_of(f.ctx, (f.ctx.one,) + f.coeffs[1:])
        low = f1.lowered(h)
        assert (low * g).coeffs == schoolbook_mul(low, g).coeffs


def test_zero_operand_and_extreme_heights():
    ctx = cyclo_context(12)
    big = _reduce(ctx, [Fraction(2**256 - 1), Fraction(-(2**256) + 1, 3),
                      Fraction(2**255, 2**64 + 1), Fraction(-1)])
    f = series_of(ctx, [big] * 9)
    zero = QSeries.zero(ctx, 9)
    assert (f * zero) == zero == (zero * f)
    assert (f * f).coeffs == schoolbook_mul(f, f).coeffs
    assert (f * f * f).coeffs == schoolbook_mul(schoolbook_mul(f, f), f).coeffs


@pytest.mark.parametrize("L", CONDUCTORS)
def test_slots_hold_the_largest_possible_sum(L):
    # every coordinate at full height and of one sign: a product slot then
    # reaches prec*phi(L)*max|a|*max|b|, the sum the slot width is sized for
    ctx = cyclo_context(L)
    f = series_of(ctx, [_reduce(ctx, [Fraction(2**127 - 1)] * ctx.degree)] * 12)
    g = series_of(ctx, [_reduce(ctx, [Fraction(1 - 2**128)] * ctx.degree)] * 12)
    assert (f * g).coeffs == schoolbook_mul(f, g).coeffs
    assert (f * f).coeffs == schoolbook_mul(f, f).coeffs


def _slot_bits(f: QSeries, g: QSeries) -> int:
    """The slot bound of the product: bits(max|a|*max|b|*prec*phi(L)) + 2, over
    the numerators (each operand's denominator is cleared before packing)."""
    n = min(f.prec, g.prec) * f.ctx.degree
    top_a, top_b = max(map(abs, f.nums[:n])), max(map(abs, g.nums[:n]))
    return (top_a * top_b * n).bit_length() + 2


def _extreme_pair(L: int, prec: int, bits: int, signs=(1, -1)):
    """Two series whose every coordinate has the largest magnitude that keeps
    the slot bound at `bits`, with the given signs.  Coordinate phi(L)-1 of
    the last coefficient of their product then sums prec*phi(L) equal terms:
    the largest slot the bound allows, up to rounding of the square root."""
    ctx = cyclo_context(L)
    n = prec * ctx.degree
    top = isqrt(((1 << (bits - 2)) - 1) // n)
    f = QSeries(ctx, [signs[0] * top] * n)
    g = QSeries(ctx, [signs[1] * top] * n)
    assert _slot_bits(f, g) == bits
    return f, g


# 8, 16, 32 and 64 fill a struct slot width, and one bit more needs the next;
# 65 and up go through whole bytes.  At 10, 66 and 74 the height alone fills
# whole bytes, so only the bound's two guard bits widen the slot.
@pytest.mark.parametrize("bits", [8, 9, 10, 16, 17, 32, 33, 64, 65, 66, 72, 74])
@pytest.mark.parametrize("L", [1, 4, 12])
def test_slot_width_edges_match_schoolbook(bits, L):
    prec = 3 if L == 1 else 2  # keeps sqrt of the bound above 1 at 8 bits
    for signs in [(1, -1), (-1, 1), (-1, -1)]:  # the most negative slot either way, the largest
        f, g = _extreme_pair(L, prec, bits, signs)
        want = schoolbook_mul(f, g)
        assert f * g == want, signs
        assert g * f == want, signs
        assert f * f == schoolbook_mul(f, f), signs


@pytest.mark.parametrize("L", [1, 4, 10])
def test_zero_on_either_side_and_squared(L):
    ctx = cyclo_context(L)
    f, _ = _extreme_pair(L, 5, 40)
    zero = QSeries.zero(ctx, 5)
    assert f * zero == zero == zero * f
    assert zero * zero == zero
    assert zero ** 3 == zero
    assert f * QSeries.zero(ctx, 3) == QSeries.zero(ctx, 3)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.data())
def test_a_square_equals_the_product_with_an_equal_copy(L, data):
    f = data.draw(series(cyclo_context(L)))
    copy = QSeries(f.ctx, f.nums, f.den)
    assert copy is not f and copy == f
    square = f * f
    assert square == f * copy == copy * f
    assert square.coeffs == schoolbook_mul(f, copy).coeffs


def _with_zero_blocks(ctx, draw):
    """A series of mixed coefficients in which some whole coefficients are zero."""
    f = draw(series(ctx, prec=draw(st.integers(2, 10))))
    d, keep = ctx.degree, draw(st.lists(st.booleans(), min_size=f.prec, max_size=f.prec))
    nums = [x if keep[i // d] else 0 for i, x in enumerate(f.nums)]
    return QSeries(ctx, nums, f.den)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.data())
def test_scale_by_a_field_element_and_conj_match_each_coefficient(L, data):
    ctx = cyclo_context(L)
    f = _with_zero_blocks(ctx, data.draw)
    c = data.draw(series(ctx, prec=1)).coefficient(0) + ctx.zeta_power(1)  # rarely rational
    assert f.scale(c).coeffs == tuple(a * c for a in f.coeffs)
    assert (f * c).coeffs == tuple(a * c for a in f.coeffs)
    assert f.conj().coeffs == tuple(map(conj, f.coeffs))

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

from mfring import qseries
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


@st.composite
def narrow_series(draw, ctx, prec=None):
    """A series whose coefficients use only the first e coordinates of the power
    basis, e in 1..phi(L); e = 1 (a rational series) is drawn about half the time."""
    if prec is None:
        prec = draw(st.integers(1, 12))
    d = ctx.degree
    e = draw(st.one_of(st.just(1), st.integers(1, d)))
    sparse = st.one_of(st.just(Fraction(0)), _rationals)
    coeffs = [_reduce(ctx, draw(st.lists(sparse, min_size=e, max_size=e)))
              for _ in range(prec)]
    return series_of(ctx, coeffs)


def _used(f: QSeries) -> int:
    """One past the last coordinate that is nonzero in some coefficient of f; 0 for zero."""
    d = f.ctx.degree
    return max((k + 1 for k in range(d) if any(f.nums[k::d])), default=0)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.data())
def test_products_on_narrow_coordinates_match_schoolbook(L, data):
    ctx = cyclo_context(L)
    f = data.draw(narrow_series(ctx))
    g = data.draw(narrow_series(ctx, prec=data.draw(st.integers(1, 12))))
    assert (f * g).coeffs == schoolbook_mul(f, g).coeffs
    assert (g * f).coeffs == schoolbook_mul(g, f).coeffs
    assert (f * f).coeffs == schoolbook_mul(f, f).coeffs


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.integers(0, 5), st.data())
def test_powers_on_narrow_coordinates_match_repeated_schoolbook(L, n, data):
    f = data.draw(narrow_series(cyclo_context(L), prec=data.draw(st.integers(1, 8))))
    assert (f ** n).coeffs == schoolbook_pow(f, n).coeffs


@pytest.mark.parametrize("L", CONDUCTORS)
def test_fields_where_a_product_block_wraps_past_L(L):
    # at L = 5 and 7 a full product block, 2*phi(L)-1 slots, is longer than L; every
    # pair of prefix widths is multiplied, so each reduced power of z is folded
    ctx = cyclo_context(L)
    d = ctx.degree
    for ea in range(1, d + 1):
        f = QSeries(ctx, [(3 * i + 1) % 7 - 3 or 4 if i % d < ea else 0 for i in range(6 * d)], 2)
        for eb in range(1, d + 1):
            g = QSeries(ctx, [(5 * i + 2) % 9 - 4 or -5 if i % d < eb else 0 for i in range(6 * d)])
            assert (_used(f), _used(g)) == (ea, eb)
            assert (f * g).coeffs == schoolbook_mul(f, g).coeffs, (ea, eb)
        assert (f * f).coeffs == schoolbook_mul(f, f).coeffs, ea
        assert (f ** 3).coeffs == schoolbook_pow(f, 3).coeffs, ea


@pytest.mark.parametrize("L", CONDUCTORS)
def test_a_product_packs_one_block_of_the_coordinates_its_factors_use(L, monkeypatch):
    # a rational series times a rational series packs one slot per coefficient,
    # whatever the field; any product packs e_a + e_b - 1 slots per coefficient
    packed = []
    to_bytes = qseries._to_bytes

    def spy(slots, nb, n):
        packed.append(n)
        return to_bytes(slots, nb, n)

    monkeypatch.setattr(qseries, "_to_bytes", spy)
    ctx, prec = cyclo_context(L), 7
    d = ctx.degree
    for ea in range(1, d + 1):
        f = QSeries(ctx, [i % 5 - 2 or 3 if i % d < ea else 0 for i in range(prec * d)])
        for eb in range(1, d + 1):
            g = QSeries(ctx, [i % 4 - 1 or -2 if i % d < eb else 0 for i in range(prec * d)])
            assert (_used(f), _used(g)) == (ea, eb)
            packed.clear()
            f * g
            assert packed == [prec * (ea + eb - 1)] * 2, (ea, eb)
        packed.clear()
        f * f
        assert packed == [prec * (2 * ea - 1)], ea
    rational = QSeries(ctx, [3 - i if i % d == 0 else 0 for i in range(prec * d)])
    packed.clear()
    rational * rational.scale(Fraction(-2, 3))
    rational ** 2
    assert packed == [prec, prec, prec]


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


def _prefix(ctx, x: Fraction, e: int, prec: int = 12) -> QSeries:
    """The series whose every coefficient has x at coordinates 0..e-1 and 0 after."""
    return series_of(ctx, [_reduce(ctx, [x] * e)] * prec)


@pytest.mark.parametrize("L", CONDUCTORS)
def test_slots_hold_the_largest_possible_sum(L):
    # the first e_a (e_b) coordinates at full height and of one sign: a product
    # slot then reaches prec*min(e_a, e_b)*max|a|*max|b|, the sum the slot width
    # is sized for; e = phi(L) fills every coordinate
    ctx = cyclo_context(L)
    d = ctx.degree
    for ea in sorted({1, (d + 1) // 2, d}):
        f = _prefix(ctx, Fraction(2**127 - 1), ea)
        for eb in sorted({1, d // 2 or 1, d}):
            g = _prefix(ctx, Fraction(1 - 2**128), eb)
            assert (f * g).coeffs == schoolbook_mul(f, g).coeffs, (ea, eb)
        assert (f * f).coeffs == schoolbook_mul(f, f).coeffs, ea


def _slot_bits(f: QSeries, g: QSeries) -> int:
    """The slot bound of the product: bits(max|a|*max|b|*prec*min(e_a, e_b)) + 2,
    over the numerators (each operand's denominator is cleared before packing),
    e the coordinates a factor uses."""
    p = min(f.prec, g.prec)
    n = p * f.ctx.degree
    top_a, top_b = max(map(abs, f.nums[:n])), max(map(abs, g.nums[:n]))
    return (top_a * top_b * p * min(_used(f), _used(g))).bit_length() + 2


def _extreme_pair(L: int, prec: int, bits: int, signs=(1, -1), e=None):
    """Two series whose first e coordinates (every one by default) have the
    largest magnitude that keeps the slot bound at `bits`, with the given signs,
    and whose other coordinates are 0.  Coordinate e-1 of the last coefficient
    of their product then sums prec*e equal terms: the largest slot the bound
    allows, up to rounding of the square root."""
    ctx = cyclo_context(L)
    d = ctx.degree
    e = e or d
    top = isqrt(((1 << (bits - 2)) - 1) // (prec * e))
    f = QSeries(ctx, [signs[0] * top if i % d < e else 0 for i in range(prec * d)])
    g = QSeries(ctx, [signs[1] * top if i % d < e else 0 for i in range(prec * d)])
    assert _slot_bits(f, g) == bits
    return f, g


def _check_slot_width_edge(L: int, bits: int, e=None):
    prec = 3 if L == 1 or e == 1 else 2  # keeps sqrt of the bound above 1 at 8 bits
    for signs in [(1, -1), (-1, 1), (-1, -1)]:  # the most negative slot either way, the largest
        f, g = _extreme_pair(L, prec, bits, signs, e)
        want = schoolbook_mul(f, g)
        assert f * g == want, signs
        assert g * f == want, signs
        assert f * f == schoolbook_mul(f, f), signs


# 8, 16, 32 and 64 fill a struct slot width, and one bit more needs the next;
# 65 and up go through whole bytes.  At 10, 66 and 74 the height alone fills
# whole bytes, so only the bound's two guard bits widen the slot.
_EDGE_BITS = [8, 9, 10, 16, 17, 32, 33, 64, 65, 66, 72, 74]


@pytest.mark.parametrize("bits", _EDGE_BITS)
@pytest.mark.parametrize("L", [1, 4, 12])
def test_slot_width_edges_match_schoolbook(bits, L):
    _check_slot_width_edge(L, bits)


@pytest.mark.parametrize("bits", _EDGE_BITS)
@pytest.mark.parametrize("L, e", [(4, 1), (12, 1), (12, 2)])
def test_slot_width_edges_on_the_first_coordinates_match_schoolbook(bits, L, e):
    _check_slot_width_edge(L, bits, e)


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

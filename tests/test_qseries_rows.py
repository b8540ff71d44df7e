"""The integer-row QSeries against per-coefficient CycloNum arithmetic.

A QSeries stores one common denominator and flat integer coordinates.
The reference below is what each op meant coefficient by coefficient:
CycloNum sums, products and scalings, conjugation by reducing
zeta^(L-i) through the minimal polynomial, and the schoolbook product.
Every result must equal the reference exactly and be stored canonically.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from mfring.cyclo import cyclo_context
from mfring.qseries import QSeries

from _series import series_of

CONDUCTORS = (1, 2, 3, 4, 5, 8, 10, 12)

# small, 2^40-sized and beyond-2^128 numerators, of both signs
_numerators = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**40), 2**40),
    st.integers(2**128, 2**140).flatmap(lambda n: st.sampled_from((n, -n))),
)
_denominators = st.one_of(st.just(1), st.integers(1, 12), st.integers(1, 2**130))
_rationals = st.builds(Fraction, _numerators, _denominators)


def _reduce(ctx, raw):
    """sum_i raw[i] z^i for rationals raw[i], as an element of ctx."""
    return sum((ctx.zeta_power(i) * x for i, x in enumerate(raw) if x), ctx.zero)


def _elements(ctx):
    coords = st.lists(st.one_of(st.just(Fraction(0)), _rationals),
                      min_size=ctx.degree, max_size=ctx.degree)
    return coords.map(lambda raw: _reduce(ctx, raw))


@st.composite
def _coefficients(draw, ctx, prec):
    if draw(st.integers(0, 5)) == 0:
        return [ctx.zero] * prec  # the zero series
    return [draw(_elements(ctx)) for _ in range(prec)]


def _canonical(f: QSeries, ctx, prec):
    assert f.ctx == ctx and f.prec == prec
    assert len(f.nums) == prec * ctx.degree
    assert f.den >= 1 and gcd(f.den, *f.nums) == 1
    assert all(type(x) is int for x in f.nums)


def _check(got: QSeries, want: list):
    ctx, prec = want[0].ctx, len(want)
    _canonical(got, ctx, prec)
    assert got.coeffs == tuple(want)
    assert got == series_of(ctx, want)


# -- the reference: today's ops, one CycloNum per coefficient --------------

def ref_conj(c):
    ctx = c.ctx
    raw = [Fraction(0)] * ctx.L
    for i, x in enumerate(c.nums):
        raw[(ctx.L - i) % ctx.L] += Fraction(x, c.den)
    return _reduce(ctx, raw)


def ref_mul(a, b):
    p = min(len(a), len(b))
    out = [a[0].ctx.zero] * p
    for i in range(p):
        for j in range(p - i):
            out[i + j] = out[i + j] + a[i] * b[j]
    return out


def ref_v(a, h, keep):
    new_prec = min(h * (len(a) - 1) + 1, keep)
    out = [a[0].ctx.zero] * new_prec
    for i in range((new_prec - 1) // h + 1):
        out[h * i] = a[i]
    return out


@st.composite
def _cases(draw):
    ctx = cyclo_context(draw(st.sampled_from(CONDUCTORS)))
    prec = draw(st.integers(1, 7))
    a = draw(_coefficients(ctx, prec))
    b = draw(_coefficients(ctx, draw(st.integers(1, 7))))
    return ctx, a, b


@settings(max_examples=150, deadline=None)
@given(_cases(), st.data())
def test_every_op_matches_the_per_coefficient_reference(case, data):
    ctx, a, b = case
    f, g = series_of(ctx, a), series_of(ctx, b)
    _check(f, a)
    p = min(len(a), len(b))
    _check(f + g, [x + y for x, y in zip(a[:p], b[:p])])
    _check(f - g, [x - y for x, y in zip(a[:p], b[:p])])
    _check(f.scale(-1), [-x for x in a])
    _check(f * g, ref_mul(a, b))
    n = data.draw(st.integers(0, 3))
    want = [ctx.one] + [ctx.zero] * (len(a) - 1)
    for _ in range(n):
        want = ref_mul(want, a)
    _check(f**n, want)
    c = data.draw(_elements(ctx))
    _check(f.scale(c), [c * x for x in a])
    k = data.draw(_numerators)
    _check(f.scale(k), [x * k for x in a])
    r = data.draw(_rationals)
    _check(f.scale(r), [x * r for x in a])
    _check(f.conj(), [ref_conj(x) for x in a])
    h, keep = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 30))
    _check(f.v_operator(h, keep), ref_v(a, h, keep))
    t = data.draw(st.integers(1, len(a)))
    _check(f.truncate(t), a[:t])


@settings(max_examples=100, deadline=None)
@given(_cases(), st.integers(2, 4))
def test_lowered_matches_the_reference(case, h):
    ctx, a, _ = case
    a = [ctx.one] + a
    if a[1].is_zero():
        a[1] = ctx.one
    lead = a[1].invert()
    diff = [x - y for x, y in zip(a, ref_v(a, h, len(a)))]
    _check(series_of(ctx, a).lowered(h), [lead * x for x in diff])


def test_canonical_storage_after_cancellation():
    ctx = cyclo_context(4)
    half = ctx.from_rational(Fraction(1, 2))
    f = series_of(ctx, [half, half * 3])
    assert (f.den, f.nums) == (2, (1, 0, 3, 0))
    twice = f.scale(2)
    assert (twice.den, twice.nums) == (1, (1, 0, 3, 0))
    assert (f - f).den == 1 and (f - f).is_zero()
    # dropping the 1/2 leaves (2, 0) over 2, which must reduce to (1, 0) over 1
    g = series_of(ctx, [ctx.one, half])
    assert (g.truncate(1).den, g.truncate(1).nums) == (1, (1, 0))
    s = QSeries(ctx, [4, 2, 6, 0], 8)
    assert (s.den, s.nums) == (4, (2, 1, 3, 0))
    assert s.coeffs == (half + ctx.zeta_power(1) * Fraction(1, 4), ctx.from_rational(Fraction(3, 4)))

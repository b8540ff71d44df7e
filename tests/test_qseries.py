import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfring import qseries
from mfring.catalog import load_catalog
from mfring.constructors import eisenstein_e
from mfring.cyclo import cyclo_context, render_cyclo
from mfring.errors import BadLeadingShape, ContextMismatch
from mfring.qseries import QSeries

from _series import series_of

C1 = cyclo_context(1)
C4 = cyclo_context(4)
CATALOG = load_catalog()


def _sigma(k, n):
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def _series(values, ctx=C1):
    return series_of(ctx, map(ctx.from_rational, values))


def test_basic_ops():
    f = _series([1, 1, 0, 0, 0])
    g = _series([1, -1, 0, 0, 0])
    assert str(f * g) == "1 - q^2 + O(q^5)"
    one = QSeries.one(C1, 5)
    assert f * one == f
    assert f + QSeries.zero(C1, 5) == f
    with pytest.raises(ContextMismatch):
        f + QSeries.one(C4, 5)


def test_scaling_by_a_scalar_of_another_field_raises():
    one = QSeries.one(C4, 3)
    for L in (3, 5):
        z = cyclo_context(L).zeta_power(1)
        with pytest.raises(ContextMismatch):
            one.scale(z)
        with pytest.raises(ContextMismatch):
            one * z
        with pytest.raises(ContextMismatch):
            z * one
    assert str(one.scale(C4.zeta_power(1))) == "z4 + O(q^3)"


def test_min_precision_propagation():
    f = _series([1, 2, 3])
    g = _series([1, 1, 1, 1, 1])
    assert (f + g).prec == 3
    assert (f * g).prec == 3


def test_square_matches_convolution_oracle():
    prec = 20
    e4 = eisenstein_e(4, prec, C1)
    coeffs = [1] + [240 * _sigma(3, n) for n in range(1, prec)]
    square = [sum(coeffs[i] * coeffs[n - i] for i in range(n + 1)) for n in range(prec)]
    assert (e4 * e4) == _series(square)


def test_v_operator():
    f = _series([1, 1])
    assert str(f.v_operator(2)) == "1 + q^2 + O(q^3)"
    assert f.v_operator(1) is f
    e2 = eisenstein_e(2, 10, C1)
    v = e2.v_operator(2)
    assert v.coefficient(1).is_zero()
    assert v.coefficient(2) == -24
    assert v.prec == 19


def test_v_operator_ring_homomorphism_and_composition():
    rng = random.Random(11)
    for _ in range(10):
        f = _series([rng.randint(-5, 5) for _ in range(7)])
        g = _series([rng.randint(-5, 5) for _ in range(7)])
        h = rng.choice([2, 3])
        assert (f * g).v_operator(h) == f.v_operator(h) * g.v_operator(h)
        assert (f + g).v_operator(h) == f.v_operator(h) + g.v_operator(h)
        assert f.v_operator(h).v_operator(2) == f.v_operator(2 * h)


def test_v_operator_keep_equals_truncation():
    rng = random.Random(5)
    for _ in range(10):
        f = _series([rng.randint(-5, 5) for _ in range(rng.randint(1, 7))])
        h = rng.randint(1, 4)
        full = f.v_operator(h)
        for keep in range(1, full.prec + 3):
            assert f.v_operator(h, keep) == full.truncate(min(keep, full.prec))
    # only the kept coefficients are built, whatever h is
    assert str(_series([1, 1, 1]).v_operator(10**11, 3)) == "1 + O(q^3)"
    e4 = eisenstein_e(4, 4, C1)
    assert str(e4.lowered(10**11)) == "q + 9*q^2 + 28*q^3 + O(q^4)"


def test_lowered():
    e4 = eisenstein_e(4, 5, C1)
    alpha2 = e4.lowered(2)
    assert list(alpha2.coeffs) == [0, 1, 8, 28, 64]
    assert str(_series([1, 1, 0, 0, 0]).lowered(3)) == "q - q^3 + O(q^5)"
    assert alpha2.coefficient(0).is_zero() and alpha2.coefficient(1) == C1.one
    with pytest.raises(BadLeadingShape):
        _series([2, 1, 0]).lowered(2)
    with pytest.raises(BadLeadingShape):
        _series([1, 0, 1]).lowered(2)
    with pytest.raises(ValueError):  # f - f(q) is zero, not q + O(q^2)
        e4.lowered(1)


def test_lowered_with_cyclotomic_leading_coefficient():
    # constant 1, q-coefficient 3 - z4: the division must stay exact
    lead = C4.from_rational(3) - C4.zeta_power(1)
    f = series_of(C4, [C4.one, lead, C4.from_rational(7)])
    low = f.lowered(2)
    assert low.coefficient(0).is_zero()
    assert low.coefficient(1) == C4.one


def test_conj_series():
    rng = random.Random(5)
    coeffs = [C4.from_rational(rng.randint(-4, 4)) + C4.zeta_power(1) * rng.randint(-4, 4)
              for _ in range(8)]
    f = series_of(C4, coeffs)
    assert f.conj().conj() == f
    rational = _series([1, 5, -2])
    assert rational.conj() == rational


def test_vanishing_order():
    assert _series([0, 1, 0, 7]).vanishing_order() == 1
    assert _series([1, 1]).vanishing_order() == 0
    assert QSeries.zero(C1, 10).vanishing_order() is None
    assert QSeries.zero(C1, 10).is_zero()


def test_ring_laws_random():
    rng = random.Random(77)
    for _ in range(10):
        f = _series([rng.randint(-4, 4) for _ in range(6)])
        g = _series([rng.randint(-4, 4) for _ in range(6)])
        h = _series([rng.randint(-4, 4) for _ in range(6)])
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f


def test_rendering():
    e4 = eisenstein_e(4, 4, C1)
    assert str(e4) == "1 + 240*q + 2160*q^2 + 6720*q^3 + O(q^4)"
    e2 = eisenstein_e(2, 4, C1)
    assert str(e2) == "1 - 24*q - 72*q^2 - 96*q^3 + O(q^4)"
    mixed = series_of(C4, [C4.one, C4.from_rational(3) - C4.zeta_power(1), C4.zero])
    assert str(mixed) == "1 + (3 - z4)*q + O(q^3)"
    assert str(QSeries.zero(C1, 3)) == "0 + O(q^3)"
    # parentheses led by +z and -z, a reduced fraction before z inside them, one
    # coordinate times z, -q^n, and a first term that is negative
    c5 = cyclo_context(5)
    blocks = [[-1, 0, 0, 0], [0, 2, -4, 0], [0, -2, 0, 2], [-2, 0, 0, 0], [0, 0, 0, -2],
              [0, 1, -2, 0], [0, 0, 0, 0], [3, 0, 1, 0]]
    assert str(QSeries(c5, sum(blocks, []), 2)) == (
        "-1/2 + (z5 - 2*z5^2)*q + (-z5 + z5^3)*q^2 - q^3 - z5^3*q^4"
        " + (1/2*z5 - z5^2)*q^5 + (3/2 + 1/2*z5^2)*q^7 + O(q^8)")
    assert str(QSeries(C4, [0, -1, 0, 3, -1, 0])) == "-z4 + 3*z4*q - q^2 + O(q^3)"
    assert str(QSeries(C4, [0, 0, -1, 1, 0, -2], 3)) == "(-1/3 + 1/3*z4)*q - 2/3*z4*q^2 + O(q^3)"
    assert str(QSeries(C1, [0, -1, 5])) == "-q + 5*q^2 + O(q^3)"
    assert str(QSeries(C1, [0, 0, 0, -1])) == "-q^3 + O(q^4)"


def test_the_suffix_table_holds_no_more_than_the_largest_precision_rendered(monkeypatch):
    monkeypatch.setattr(qseries, "_Q_POWERS", [])
    for prec, size in [(1, 1), (40, 40), (3, 40), (50, 50)]:
        assert str(QSeries.one(C1, prec)) == f"1 + O(q^{prec})"
        assert len(qseries._Q_POWERS) == size
    assert qseries._Q_POWERS[:4] == ["", "*q", "*q^2", "*q^3"]
    # above the ceiling a series renders from a list that is not kept
    monkeypatch.setattr(qseries, "MAX_COORDINATES", 60)
    assert str(QSeries(C1, [1] * 70)).endswith(" + q^68 + q^69 + O(q^70)")
    assert len(qseries._Q_POWERS) == 50
    assert str(QSeries(C1, [1] * 60)).endswith(" + q^59 + O(q^60)")
    assert len(qseries._Q_POWERS) == 60


def _render_each_coefficient(f):
    """render_qseries rebuilt from render_cyclo, one coefficient at a time."""
    parts = []
    for n, c in enumerate(f.coeffs):
        if c.is_zero():
            continue
        text = render_cyclo(c)
        qpart = "q" if n == 1 else f"q^{n}"
        if sum(1 for x in c.nums if x) > 1:
            sign, text = "+", f"({text})" + (f"*{qpart}" if n else "")
        else:
            sign, text = ("-", text[1:]) if text.startswith("-") else ("+", text)
            if n:
                text = qpart if text == "1" else f"{text}*{qpart}"
        parts.append(f"{sign} {text}" if parts else text if sign == "+" else f"-{text}")
    return " ".join(parts or ["0"]) + f" + O(q^{f.prec})"


# den 3*2^70 puts the denominator itself beyond 2^64
_DENS = [1, 1, 2, 6, 35, 720, 3 * 2**70]
# shapes of a coefficient: +-1, +-z^i, +-z^i (i >= 1) before any later coordinates,
# zero, one nonzero coordinate, any
_SHAPES = ["unit", "unit z", "unit lead", "zero", "one", "any"]


@st.composite
def _random_series(draw):
    """Series over fields of degree 1 to 8 at precisions up to 300, with random
    denominators and whole zero coefficients, and coefficients with one or
    several nonzero coordinates.  A coordinate is small, beyond 2^64, or a
    divisor of the denominator, so that it reduces to magnitude 1 or 1/k; any
    coefficient is also drawn as +-1, +-z^i, or led by +-z^i before other
    coordinates (coefficients 0 and 1 by hypothesis, the others by a seeded rng)."""
    ctx = cyclo_context(draw(st.sampled_from([1, 3, 4, 5, 12, 15])))
    d, den = ctx.degree, draw(st.sampled_from(_DENS))
    prec = draw(st.integers(1, 300))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    divisors = [k for k in range(1, 13) if den % k == 0]

    def coordinate():
        mag = rng.choice([rng.randint(1, 30), rng.randint(2**64, 2**100),
                          den, den // rng.choice(divisors)])
        return rng.choice([-1, 1]) * mag

    def some():
        return [coordinate() if rng.random() < 0.7 else 0 for _ in range(d)]

    nums = []
    for n in range(prec):
        choose = (lambda xs: draw(st.sampled_from(xs))) if n < 2 else rng.choice
        shape = choose(_SHAPES)
        block = [0] * d
        if shape in ("unit", "unit z"):
            block[0 if shape == "unit" else choose(range(d))] = choose([den, -den])
        elif shape == "unit lead":
            i = choose(range(min(1, d - 1), d))
            block[i + 1:] = some()[i + 1:]
            block[i] = choose([den, -den])
        elif shape == "one":
            block[rng.randrange(d)] = coordinate()
        elif shape == "any":
            block = some()
        nums += block
    return QSeries(ctx, nums, den)


@settings(max_examples=200, deadline=None)
@given(_random_series())
def test_rendering_equals_the_per_coefficient_rendering(f):
    assert str(f) == _render_each_coefficient(f)


@pytest.mark.parametrize("expr", ["E30", "C23", "bqf[2,1,5]", "f[3;chi13]", "g[3;chi7]",
                                  "g[3;chi13,rho13]"])
def test_constructor_series_render_as_the_per_coefficient_rendering(expr):
    """One constructor per family and field degree (1, 2 and 4) at prec 600."""
    f = CATALOG.lookup_form(expr, 600)
    assert str(f) == _render_each_coefficient(f)


@pytest.mark.parametrize("L", [1, 3, 12])
@pytest.mark.parametrize("prec", [1, 2, 600])
def test_zero_series_renders_as_zero(L, prec):
    assert str(QSeries.zero(cyclo_context(L), prec)) == f"0 + O(q^{prec})"


@st.composite
def _rational_columns(draw):
    """(den, nums) of a series over Q: den 1 or larger, coordinates of magnitude
    den (terms written without '1*'), zero, small, or beyond 2^64, and a first
    coefficient that is often -1."""
    den = draw(st.sampled_from([1, 1, 2, 12, 3 * 2**70]))
    coordinate = st.one_of(st.sampled_from([den, -den, 0, 0]), st.integers(-30, 30),
                           st.integers(-(2**80), 2**80))
    nums = draw(st.lists(coordinate, min_size=1, max_size=40))
    if draw(st.booleans()):
        nums[0] = -den
    return den, nums


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 7, 10, 12, 15]), _rational_columns())
def test_rational_coefficients_render_as_over_q(L, columns):
    # the same rational coefficients in Q(zeta_L), phi(L) > 1, and in Q
    den, nums = columns
    ctx = cyclo_context(L)
    d = ctx.degree
    wide = [0] * (len(nums) * d)
    wide[::d] = nums
    f = QSeries(ctx, wide, den)
    assert str(f) == str(QSeries(C1, nums, den)) == _render_each_coefficient(f)


@pytest.mark.parametrize("L", [4, 10])
def test_zero_and_minus_one_over_a_field_render_as_over_q(L):
    ctx = cyclo_context(L)
    assert str(QSeries.zero(ctx, 5)) == str(QSeries.zero(C1, 5)) == "0 + O(q^5)"
    minus = QSeries.one(ctx, 3).scale(-1)
    assert str(minus) == str(QSeries.one(C1, 3).scale(-1)) == "-1 + O(q^3)"


def test_catalog_forms_with_rational_coefficients_over_a_field():
    # F5 is built over Q(zeta_4) and alpha11 over Q(zeta_10); every coefficient is rational
    f5, alpha11 = CATALOG.lookup_form("F5", 10), CATALOG.lookup_form("alpha11", 10)
    assert (f5.ctx.L, alpha11.ctx.L) == (4, 10)
    assert all(c.is_rational() for c in f5.coeffs + alpha11.coeffs)
    assert str(f5) == "1 + 3*q + 4*q^2 + 2*q^3 + q^4 + 3*q^5 + 6*q^6 + 4*q^7 - q^9 + O(q^10)"
    assert str(alpha11) == "q - 2*q^2 - q^3 + 2*q^4 + q^5 + 2*q^6 - 2*q^7 - 2*q^9 + O(q^10)"

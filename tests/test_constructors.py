import os
from collections import Counter
from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfring import catalog, constructors
from mfring.characters import _NAMED_DEFS, divisor_sums, named_character, trivial_character
from mfring.constructors import (
    _bernoulli_cache,
    bernoulli,
    eis_f,
    eis_g,
    eis_g2,
    eisenstein_c,
    eisenstein_e,
    eisenstein_lead,
    gen_bernoulli,
    theta_bqf,
    theta_series,
)
from mfring.cyclo import cyclo_context, embed, root_of_unity
from mfring.errors import (
    BadWeight,
    ConductorMismatch,
    ImprimitiveCharacter,
    NotPositiveDefinite,
    ParityViolation,
)
from mfring.qseries import QSeries

C1 = cyclo_context(1)
C2 = cyclo_context(2)
C4 = cyclo_context(4)
C6 = cyclo_context(6)
C10 = cyclo_context(10)


def bernoulli_poly(k, x):
    """Bernoulli polynomial B_k evaluated at a rational point, term by term."""
    return sum((comb(k, j) * bernoulli(j)) * x ** (k - j) for j in range(k + 1))


def _sigma(k, n):
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def reference_bernoulli(k):
    """B_0..B_k by the recurrence sum_(j<=m) C(m+1, j) B_j = 0, in Fractions."""
    out = [Fraction(1)]
    for m in range(1, k + 1):
        out.append(-sum(comb(m + 1, j) * b for j, b in enumerate(out)) / (m + 1))
    return out


def test_bernoulli_numbers_equal_the_rational_recurrence():
    want = reference_bernoulli(300)
    _bernoulli_cache[:] = [Fraction(1)]  # cold, then every index in turn
    assert [bernoulli(k) for k in range(301)] == want
    for top in (0, 1, 2, 3, 4, 5, 17, 300):  # one table of each size
        _bernoulli_cache[:] = [Fraction(1)]
        assert bernoulli(top) == want[top]
        assert _bernoulli_cache[:top + 1] == want[:top + 1]


def test_bernoulli_numbers():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert all(bernoulli(k) == 0 for k in (3, 5, 7, 9))
    assert Fraction(-4) / bernoulli(2) == -24
    assert Fraction(-8) / bernoulli(4) == 240
    assert Fraction(-12) / bernoulli(6) == -504


def test_generalized_bernoulli_pins_the_convention():
    assert gen_bernoulli(1, named_character("rho4"), C2) == Fraction(-1, 2)
    assert gen_bernoulli(1, named_character("rho3"), C2) == Fraction(-1, 3)
    b7 = gen_bernoulli(1, named_character("rho7"), C2)
    assert C2.from_rational(-2) * b7.invert() == 2
    # trivial character mod 1 reproduces the plain numbers for k >= 2,
    # while k = 1 flips the sign of B1 (B_1(1) = +1/2)
    triv = trivial_character(1)
    for k in range(2, 9):
        assert gen_bernoulli(k, triv, C1) == bernoulli(k)
    assert gen_bernoulli(1, triv, C1) == Fraction(1, 2)
    assert bernoulli_poly(1, Fraction(1)) == Fraction(1, 2)


@pytest.mark.parametrize("name", ["rho3", "rho4", "chi5", "chi7", "rho8", "chi9", "chi16", "rho23"])
def test_generalized_bernoulli_equals_the_polynomial_sum(name):
    chi = named_character(name)
    N, ctx = chi.modulus, cyclo_context(chi.order())
    for k in [1, 2, 3, 4, 5, 6, 17, 40]:
        want = ctx.zero
        for a in range(1, N + 1):
            t = chi.turns[a % N]
            if t is not None:
                value = N ** (k - 1) * bernoulli_poly(k, Fraction(a, N))
                want += root_of_unity(ctx, t.numerator, t.denominator) * value
        assert gen_bernoulli(k, chi, ctx) == want, (name, k)


def test_eisenstein_level_one():
    e4 = eisenstein_e(4, 30, C1)
    for n in range(1, 30):
        assert e4.coefficient(n) == 240 * _sigma(3, n)
    e6 = eisenstein_e(6, 10, C1)
    for n in range(1, 10):
        assert e6.coefficient(n) == -504 * _sigma(5, n)
    e2 = eisenstein_e(2, 10, C1)
    assert list(e2.coeffs[:4]) == [1, -24, -72, -96]
    # the weight-2 probe normalised as in computer algebra systems
    probe = e2.scale(Fraction(-1, 24))
    assert probe.coefficient(0) == Fraction(-1, 24)
    for n in range(1, 10):
        assert probe.coefficient(n) == _sigma(1, n)
    with pytest.raises(BadWeight):
        eisenstein_e(3, 5, C1)
    with pytest.raises(BadWeight):
        eisenstein_e(0, 5, C1)


def test_weight_two_level_series():
    c2 = eisenstein_c(2, 5, C1)
    assert list(c2.coeffs) == [1, 24, 24, 96, 24]
    c4 = eisenstein_c(4, 5, C1)
    assert list(c4.coeffs) == [1, 8, 24, 32, 24]
    # prime levels: 1 + 24/(p-1) * sum (sigma_1 * 1_p)(n) q^n
    for p in (2, 3, 5, 7):
        cp = eisenstein_c(p, 12, C1)
        lead = Fraction(24, p - 1)
        for n in range(1, 12):
            want = lead * sum(d for d in range(1, n + 1) if n % d == 0 and d % p)
            assert cp.coefficient(n) == want
    # composite level 4 via the displayed double-support expansion
    c4b = eisenstein_c(4, 30, C1)
    for n in range(1, 30):
        odd = lambda m: sum(d for d in range(1, m + 1) if m % d == 0 and d % 2)
        want = 8 * odd(n) + (16 * odd(n // 2) if n % 2 == 0 else 0)
        assert c4b.coefficient(n) == want


def test_f_series_leading_coefficients():
    cases = [
        ("rho3", C2, C2.from_rational(6)),
        ("rho4", C2, C2.from_rational(4)),
        ("chi5", C4, C4.from_rational(3) - C4.zeta_power(1)),
        ("chi7", C6, C6.from_rational(3) - C6.zeta_power(1) * 2),
        ("rho7", C2, C2.from_rational(2)),
        ("rho8", C2, C2.from_rational(2)),
        ("chi9", C6, C6.from_rational(2) - C6.zeta_power(1)),
        ("chi11", C10, C10.zeta_power(3) - C10.zeta_power(4) * 2),
        ("chi16", C4, C4.one - C4.zeta_power(1)),
    ]
    for name, ctx, want in cases:
        series = eis_f(1, named_character(name), 3, ctx)
        assert series.coefficient(0) == ctx.one
        assert series.coefficient(1) == want, name
    extra = eis_f(1, named_character("chi11") ** 3, 3, C10)
    assert extra.coefficient(1) == -(C10.zeta_power(2) * 2 + C10.zeta_power(4))


def test_f_series_in_a_larger_field_is_the_embedded_series():
    # the lead is computed in Q(zeta_ord chi) and embedded; ConductorMismatch
    # still comes first when the field lacks the character's values
    for name, small, L in (("chi5", C4, 20), ("chi7", C6, 30), ("rho3", C2, 12)):
        chi, big = named_character(name), cyclo_context(L)
        k = 1 if chi.parity() < 0 else 2
        want = tuple(embed(c, big) for c in eis_f(k, chi, 6, small).coeffs)
        assert eis_f(k, chi, 6, big).coeffs == want, name
    with pytest.raises(ConductorMismatch):
        eis_f(1, named_character("chi5"), 3, C6)


def test_f_series_support_classes():
    data = [
        ("rho3", 3, {2}),
        ("rho4", 4, {3}),
        ("rho7", 7, {3, 5, 6}),
        ("rho8", 8, {5, 7}),
        ("rho11", 11, {2, 6, 7, 8, 10}),
    ]
    for name, N, excluded in data:
        series = eis_f(1, named_character(name), 60, C2)
        for n in range(1, 60):
            if n % N in excluded:
                assert series.coefficient(n).is_zero(), (name, n)


def test_f_series_preconditions():
    with pytest.raises(ParityViolation):
        eis_f(2, named_character("rho3"), 5, C2)
    with pytest.raises(ParityViolation):
        eis_f(1, named_character("rho5"), 5, C4)
    with pytest.raises(ImprimitiveCharacter):
        eis_f(1, named_character("rho3").lift(9), 5, C2)


def _composed_f(k, chi, prec, ctx):
    """f_k at chi by its definition, in four series: 1 + (sums).scale(-2k/B_(k,chi))."""
    lead = embed(gen_bernoulli(k, chi, cyclo_context(chi.order())).invert() * (-2 * k), ctx)
    sums = QSeries(ctx, divisor_sums(k, chi, trivial_character(1), prec, ctx))
    return QSeries.one(ctx, prec) + sums.scale(lead), lead


@pytest.mark.parametrize("prec", [1, 2, 37, 600])
def test_one_pass_eisenstein_series_equal_the_composed_definition(prec):
    # eis_f writes the scaled sums and the constant term into one series;
    # equal values give equal storage, so == compares den and every coordinate
    irrational = 0
    for name in sorted(_NAMED_DEFS):
        chi = named_character(name)
        ctx = cyclo_context(chi.order())
        for k in (1, 2, 3, 4):
            if chi.parity() == (-1) ** k:
                want, lead = _composed_f(k, chi, prec, ctx)
                assert eis_f(k, chi, prec, ctx) == want, (name, k)
                irrational += not lead.is_rational()
    assert irrational >= 10  # characters of order 4 and above
    for ctx in (C1, C4):
        for k in range(2, 31, 2):
            assert eisenstein_e(k, prec, ctx) == _composed_f(k, trivial_character(1), prec, ctx)[0]
        e2 = _composed_f(2, trivial_character(1), prec, ctx)[0]
        for N in range(2, 26):
            want = (e2.v_operator(N, prec).scale(N) - e2).scale(Fraction(1, N - 1))
            assert eisenstein_c(N, prec, ctx) == want, N


def test_g_series():
    rho3 = named_character("rho3")
    g = eis_g(3, rho3, 10, C2)
    assert g.coefficient(0).is_zero()
    assert g.coefficient(1) == 1
    assert g.coefficient(2) == 3
    with pytest.raises(BadWeight):
        eis_g(1, rho3, 5, C2)
    rho5, chi5 = named_character("rho5"), named_character("chi5")
    g2 = eis_g2(1, rho5, chi5, 8, C4)
    assert g2.coefficient(1) == 1
    assert g2.coefficient(5).is_zero()
    with pytest.raises(ParityViolation):
        eis_g2(2, rho5, chi5, 5, C4)


def test_theta_series():
    theta = theta_series(16, C1)
    assert str(theta) == "1 + 2*q + 2*q^4 + 2*q^9 + O(q^16)"


def _bqf_oracle(a, b, c, prec, box):
    counts = [0] * prec
    for m in range(-box, box + 1):
        for n in range(-box, box + 1):
            v = a * m * m + b * m * n + c * n * n
            if v < prec:
                counts[v] += 1
    return counts


def test_theta_bqf_against_larger_box():
    for (a, b, c) in [(1, 1, 6), (2, 1, 3), (1, 0, 1), (3, 2, 5)]:
        prec = 25
        got = theta_bqf(a, b, c, prec, C1)
        oracle = _bqf_oracle(a, b, c, prec, 40)
        assert list(got.coeffs) == oracle, (a, b, c)
    assert theta_bqf(1, 1, 6, 5, C1).coefficient(0) == 1
    with pytest.raises(NotPositiveDefinite):
        theta_bqf(1, 5, 1, 10, C1)
    with pytest.raises(NotPositiveDefinite):
        theta_bqf(-1, 0, 1, 10, C1)


@st.composite
def _positive_definite(draw):
    """(a, b, c) with 4ac - b^2 > 0, b of either sign and often |b| > a."""
    a, c = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    top = isqrt(4 * a * c - 1)
    return a, draw(st.integers(-top, top)), c


@settings(max_examples=40, deadline=None)
@given(_positive_definite(), st.one_of(st.integers(1, 3), st.integers(1, 600)))
@example((1, -9, 21), 600)  # disc 3, long thin ellipse
@example((2, 5, 4), 257)
@example((1, 1, 6), 1)  # only the origin
@example((3, -2, 5), 2)
@example((1, 0, 1), 3)
def test_theta_bqf_equals_the_box_count(form, prec):
    a, b, c = form
    # Q >= lambda_min (m^2 + n^2) and lambda_min >= det/trace = disc / (4(a+c))
    box = isqrt(prec * 4 * (a + c) // (4 * a * c - b * b)) + 1
    assert list(theta_bqf(a, b, c, prec, C1).coeffs) == _bqf_oracle(a, b, c, prec, box)


def test_each_eisenstein_lead_is_computed_once_per_weight_and_character(monkeypatch):
    # every catalog form at two precisions, each from a freshly read catalog, so
    # that every f_k(chi) is rebuilt at each precision and in each field it is
    # used in; B_(k,chi) is computed at the first of them only
    calls = Counter()

    def counting(k, chi, ctx):
        calls[k, chi] += 1
        return gen_bernoulli(k, chi, ctx)

    monkeypatch.setattr(constructors, "gen_bernoulli", counting)
    eisenstein_lead.cache_clear()
    path = os.path.join(os.path.dirname(catalog.__file__), "data", "catalog.json")
    for prec in (12, 30):
        forms = catalog.load_catalog(path)
        for name in forms.forms:
            forms.lookup_form(name, prec)
    assert len(calls) >= 10 and set(calls.values()) == {1}
    info = eisenstein_lead.cache_info()
    assert info.misses == len(calls) and info.hits >= len(calls)


def test_the_lead_lies_in_the_field_of_the_character_values():
    chi = named_character("chi13")
    lead = eisenstein_lead(3, chi)  # chi13 is odd, so k is odd
    assert lead.ctx.L == chi.order() == 12
    assert lead == gen_bernoulli(3, chi, lead.ctx).invert() * -6
    assert eisenstein_lead(4, trivial_character(1)) == Fraction(-8) / bernoulli(4)

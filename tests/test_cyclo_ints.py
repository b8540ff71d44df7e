"""CycloNum's integer coordinates against Fraction-coordinate arithmetic.

A CycloNum stores integer coordinates `nums` over one positive common
denominator `den`, with gcd(den, *nums) == 1.  The reference below is
the arithmetic it replaced: one Fraction per power-basis coordinate,
products by the schoolbook convolution reduced through the minimal
polynomial, inverses by Gaussian elimination over Q, conjugation by
sending z^i to z^(L-i).  Every result must equal the reference exactly
and be stored canonically.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfring.cyclo import (
    CycloNum,
    FieldCtx,
    _bareiss_solve,
    cyclo_context,
    fold_buckets,
    multiplication_matrix,
    roots_of_unity,
)

from _series import conj

CONDUCTORS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 15)


# -- the reference: one Fraction per coordinate ------------------------------

def ref_reduce(ctx, raw):
    """sum_i raw[i] z^i reduced modulo the minimal polynomial."""
    d = ctx.degree
    raw = [Fraction(x) for x in raw] + [Fraction(0)] * d
    for i in range(len(raw) - 1, d - 1, -1):
        for j in range(d):
            raw[i - d + j] -= raw[i] * ctx.minpoly[j]
    return tuple(raw[:d])


def ref_mul(ctx, a, b):
    raw = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            raw[i + j] += x * y
    return ref_reduce(ctx, raw)


def ref_inv(ctx, a):
    """Solve a*y = 1: column k of the system is a*z^k."""
    d = ctx.degree
    cols = [ref_mul(ctx, a, [0] * k + [1]) for k in range(d)]
    rows = [[cols[k][i] for k in range(d)] + [Fraction(int(i == 0))] for i in range(d)]
    for k in range(d):
        piv = next(i for i in range(k, d) if rows[i][k])
        rows[k], rows[piv] = rows[piv], rows[k]
        rows[k] = [x / rows[k][k] for x in rows[k]]
        for i in range(d):
            if i != k and rows[i][k]:
                rows[i] = [x - rows[i][k] * y for x, y in zip(rows[i], rows[k])]
    return tuple(r[d] for r in rows)


def ref_conj(ctx, a):
    raw = [Fraction(0)] * ctx.L
    for i, x in enumerate(a):
        raw[(ctx.L - i) % ctx.L] += x
    return ref_reduce(ctx, raw)


def ref_str(ctx, a):
    parts = []
    for i, c in enumerate(a):
        if not c:
            continue
        mag = str(abs(c))
        if i:
            mag = ("" if mag == "1" else mag + "*") + (f"z{ctx.L}" if i == 1 else f"z{ctx.L}^{i}")
        parts.append((("-" if c < 0 else "") if not parts else ("- " if c < 0 else "+ ")) + mag)
    return " ".join(parts) or "0"


# -- elements ---------------------------------------------------------------

def fractions_of(x):
    """The coordinates of x as Fractions, checking that x is stored canonically."""
    assert type(x) is CycloNum
    assert len(x.nums) == x.ctx.degree
    assert all(type(n) is int for n in x.nums) and type(x.den) is int
    assert x.den >= 1 and gcd(x.den, *x.nums) == 1
    return tuple(Fraction(n, x.den) for n in x.nums)


def element(ctx, coords, scale=1):
    """The CycloNum with these Fraction coordinates, entered over den*scale."""
    den = lcm(*(c.denominator for c in coords)) * scale
    return CycloNum(ctx, [c.numerator * (den // c.denominator) for c in coords], den)


# small, 2^40-sized and beyond-2^128 numerators and denominators, of both signs
_numerators = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**40), 2**40),
    st.integers(2**128, 2**140).flatmap(lambda n: st.sampled_from((n, -n))),
)
_denominators = st.one_of(st.just(1), st.integers(1, 12), st.integers(1, 2**130))
_rationals = st.builds(Fraction, _numerators, _denominators)


@st.composite
def coordinates(draw, ctx):
    shape = draw(st.integers(0, 5))
    if shape == 0:
        return (Fraction(0),) * ctx.degree  # zero
    if shape == 1:  # a rational element
        return (draw(_rationals),) + (Fraction(0),) * (ctx.degree - 1)
    sparse = st.one_of(st.just(Fraction(0)), _rationals)
    return tuple(draw(st.lists(sparse, min_size=ctx.degree, max_size=ctx.degree)))


@st.composite
def operands(draw):
    ctx = cyclo_context(draw(st.sampled_from(CONDUCTORS)))
    a, b = draw(coordinates(ctx)), draw(coordinates(ctx))
    # a non-canonical entry point: numerators and denominator share a factor of either sign
    scale = draw(st.sampled_from((1, 2, -1, -6, 2**70)))
    return ctx, a, b, element(ctx, a, scale), element(ctx, b)


@settings(max_examples=150, deadline=None)
@given(operands(), st.integers(-3, 4))
def test_every_op_matches_the_fraction_reference(ops, n):
    ctx, a, b, x, y = ops
    assert fractions_of(x) == a and fractions_of(y) == b
    assert fractions_of(x + y) == tuple(p + q for p, q in zip(a, b))
    assert fractions_of(x - y) == tuple(p - q for p, q in zip(a, b))
    assert fractions_of(-x) == tuple(-p for p in a)
    assert fractions_of(x * y) == ref_mul(ctx, a, b)
    assert fractions_of(conj(x)) == ref_conj(ctx, a)
    assert str(x) == ref_str(ctx, a)
    assert x.is_rational() == (not any(a[1:]))
    assert x.is_integer() == (not any(a[1:]) and a[0].denominator == 1)
    assert (x == y) == (a == b)
    if x.is_rational():
        assert x == a[0]
    if any(a):
        inv = ref_inv(ctx, a)
        assert fractions_of(x.invert()) == inv
        assert fractions_of(x * y.invert() if any(b) else x.invert()) == (
            ref_mul(ctx, a, ref_inv(ctx, b)) if any(b) else inv)
    if any(a) or n >= 0:
        want = (Fraction(1),) + (Fraction(0),) * (ctx.degree - 1)
        for _ in range(abs(n)):
            want = ref_mul(ctx, want, a if n > 0 else ref_inv(ctx, a))
        assert fractions_of(x ** n if n >= 0 else x.invert() ** -n) == want


@settings(max_examples=100, deadline=None)
@given(operands())
def test_equal_elements_are_equal_and_hash_alike(ops):
    ctx, a, _, x, y = ops
    # the same element reached by other routes
    for z in (element(ctx, a), (x + y) - y, CycloNum(ctx, [3 * v for v in x.nums], 3 * x.den)):
        assert fractions_of(z) == a
        assert z == x and hash(z) == hash(x)
        assert (z.den, z.nums) == (x.den, x.nums)


@pytest.mark.parametrize("L", [L for L in CONDUCTORS if L > 2])
def test_inverse_whose_elimination_determinant_is_negative(L):
    ctx = cyclo_context(L)
    for k in (1, 2):
        z = ctx.zeta_power(k) * Fraction(-3, 2)
        den, rows = multiplication_matrix(z)
        system = [list(col) + [den if j == 0 else 0] for j, col in enumerate(zip(*rows))]
        if _bareiss_solve(system)[1] < 0:
            break
    else:
        pytest.fail("no negative determinant among the examples")
    a = fractions_of(z)
    assert fractions_of(z.invert()) == ref_inv(ctx, a)
    assert z * z.invert() == ctx.one


def ref_fold(buckets, powers, degree):
    """fold_buckets one coefficient and one bucket at a time."""
    m, out = len(powers), []
    for n in range(0, len(buckets), m):
        coords = [0] * degree
        for c, p in zip(buckets[n:n + m], powers):
            for i, x in enumerate(p):
                coords[i] += c * x
        out.extend(coords)
    return out


@st.composite
def fold_inputs(draw):
    """Buckets over the roots of unity of an order m0 | L (often m0 > phi(L)),
    or over arbitrary integer weights, with some columns all zero."""
    L = draw(st.sampled_from(CONDUCTORS))
    ctx = cyclo_context(L)
    if draw(st.booleans()):
        m0 = draw(st.sampled_from([m for m in range(1, L + 1) if L % m == 0]))
        powers = roots_of_unity(ctx, m0)
    else:
        m0 = draw(st.integers(1, 6))
        powers = [tuple(draw(st.lists(st.integers(-3, 3), min_size=ctx.degree,
                                      max_size=ctx.degree))) for _ in range(m0)]
    blocks = draw(st.integers(0, 12))
    zero_cols = draw(st.sets(st.integers(0, m0 - 1)))
    buckets = [0 if j % m0 in zero_cols else draw(st.integers(-10**20, 10**20))
               for j in range(blocks * m0)]
    return buckets, powers, ctx.degree


@settings(max_examples=150, deadline=None)
@given(fold_inputs())
# twelve roots over a degree-4 field; columns 1, 3, 6, 7 and 10 are all zero
@example(([1, 0, 2, 0, 3, -1, 0, 0, 5, 7, 0, 4] * 2, roots_of_unity(cyclo_context(12), 12), 4))
def test_fold_buckets_equals_the_per_coefficient_fold(inputs):
    buckets, powers, degree = inputs
    assert fold_buckets(buckets, powers, degree) == ref_fold(buckets, powers, degree)


# -- the table of powers of z ------------------------------------------------

@pytest.mark.parametrize("L", sorted({1, 2, 5, 7, 11, 13, 105, *CONDUCTORS}))
def test_each_row_of_the_power_table_is_the_reduced_power(L):
    ctx = cyclo_context(L)
    d, powers = ctx.degree, ctx.powers
    assert len(powers) == max(L, 2 * d - 1)  # z^0..z^(L-1), then up to the fold's z^(2d-2)
    for k, row in enumerate(powers):
        assert type(row) is tuple and row == ref_reduce(ctx, [0] * k + [1])
    for k in range(L, len(powers)):  # z^L = 1: the same rows, not copies
        assert powers[k] is powers[k - L]
    assert len(set(map(id, powers))) == L
    if L in (5, 7, 11, 13):
        assert len(powers) == 2 * L - 3
    if L == 105:
        assert -2 in ctx.minpoly


@pytest.mark.parametrize("L", [1, 2])
def test_degree_one_fields_have_no_fold_rows(L):
    ctx = FieldCtx(L)  # not the shared context: its table is cut below
    assert ctx.degree == 1 and len(ctx.powers) == L
    ctx.powers = ctx.powers[:1]  # a read of powers[d] = powers[1] would raise
    assert multiplication_matrix(CycloNum(ctx, (-3,), 2)) == (2, [(-3,)])
    assert (CycloNum(ctx, (5,)) * CycloNum(ctx, (-3,), 2)).nums == (-15,)


def test_the_largest_admitted_field_has_one_row_per_power():
    ctx = cyclo_context(2520)
    assert (ctx.degree, len(ctx.powers)) == (576, 2520)
    for k in (1, 7, 575, 576, 1260, 2519):
        assert ctx.zeta_power(k) * ctx.zeta_power(2520 - k) == ctx.one

"""Randomized algebraic property suites with fixed seeds.

Each suite is a plain function taking a seed so the acceptance gate can
re-run them; the test wrappers pin the seeds used in CI.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfring import modp
from mfring.catalog import load_catalog
from mfring.characters import named_character, units
from mfring.cyclo import cyclo_context, root_of_unity
from mfring.qseries import QSeries
from mfring.verify import (
    GUARD,
    CaseRunner,
    Filtration,
    check_plan,
    dim_or_none,
    row_echelon_rank,
    weighted_monomials,
)

from _series import conj, series_of


def unpack(x: int, n: int) -> tuple[int, ...]:
    """The n unsigned 64-bit slots of a packed int below 2^(64n), the layout
    ``modp.pack`` writes, read independently of ``modp``."""
    return tuple((x >> 64 * j) & ((1 << 64) - 1) for j in range(n))


CAT = load_catalog()


def _reduce(ctx, raw):
    """sum_i raw[i] z^i for rationals raw[i], as an element of ctx."""
    return sum((ctx.zeta_power(i) * x for i, x in enumerate(raw) if x), ctx.zero)


def _value(chi, n, ctx):
    """chi(n) in ctx; zero off the units."""
    t = chi.turns[n % chi.modulus]
    return ctx.zero if t is None else root_of_unity(ctx, t.numerator, t.denominator)


def _random_cyclo(rng, ctx):
    return _reduce(ctx, [Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                       for _ in range(ctx.degree)])


def prop_field_axioms(seed: int, rounds: int = 30):
    rng = random.Random(seed)
    for L in (4, 10, 12):
        ctx = cyclo_context(L)
        for _ in range(rounds):
            x, y, z = (_random_cyclo(rng, ctx) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + ctx.zero == x and x * ctx.one == x
            if not x.is_zero():
                assert x * x.invert() == ctx.one


def prop_conj_involution(seed: int, rounds: int = 30):
    rng = random.Random(seed)
    for L in (4, 10, 12):
        ctx = cyclo_context(L)
        for _ in range(rounds):
            x, y = _random_cyclo(rng, ctx), _random_cyclo(rng, ctx)
            assert conj(conj(x)) == x
            assert conj(x * y) == conj(x) * conj(y)
            assert conj(x + y) == conj(x) + conj(y)


def prop_v_operator(seed: int, rounds: int = 15):
    rng = random.Random(seed)
    ctx = cyclo_context(1)
    for _ in range(rounds):
        f = series_of(ctx, [ctx.from_rational(rng.randint(-5, 5)) for _ in range(8)])
        g = series_of(ctx, [ctx.from_rational(rng.randint(-5, 5)) for _ in range(8)])
        h, hp = rng.choice([2, 3]), rng.choice([2, 3])
        assert (f * g).v_operator(h) == f.v_operator(h) * g.v_operator(h)
        assert (f + g).v_operator(h) == f.v_operator(h) + g.v_operator(h)
        assert f.v_operator(h).v_operator(hp) == f.v_operator(h * hp)


def prop_character_multiplicativity(seed: int, rounds: int = 40):
    rng = random.Random(seed)
    from math import gcd

    for name, L in (("chi5", 4), ("chi7", 6), ("chi11", 10), ("chi16", 4)):
        chi = named_character(name)
        ctx = cyclo_context(L)
        N = chi.modulus
        for _ in range(rounds):
            m, n = rng.randint(1, 80), rng.randint(1, 80)
            if gcd(m * n, N) > 1:
                continue
            assert _value(chi, m * n, ctx) == _value(chi, m, ctx) * _value(chi, n, ctx)


def prop_character_orthogonality():
    for name, L in (("rho3", 2), ("rho4", 2), ("chi5", 4), ("chi7", 6),
                    ("chi9", 6), ("chi11", 10), ("rho8", 2), ("chi16", 4)):
        chi = named_character(name)
        ctx = cyclo_context(L)
        total = ctx.zero
        for u in units(chi.modulus):
            total = total + _value(chi, u, ctx)
        assert total.is_zero(), name


def prop_rank_nullity(case_label: str = "9", j2: int = 8):
    runner = CaseRunner(CAT, CAT.cases[case_label], presentation=True)
    prec = runner.sturm2(j2) + GUARD
    mons = weighted_monomials(runner.weights2, j2)
    rows = [list(runner.monomial_series(e, prec).coeffs) for e in mons]
    ctx = runner.evaluator.ctx
    # explicit augmented elimination: zero rows witness kernel vectors
    width = prec
    aug = [row + [ctx.one if j == i else ctx.zero for j in range(len(rows))]
           for i, row in enumerate(rows)]
    pivots, kernel = [], []
    for row in aug:
        row = list(row)
        for col, prow in pivots:
            c = row[col]
            if not c.is_zero():
                for j in range(col, len(row)):
                    row[j] = row[j] - c * prow[j]
        lead = next((j for j in range(width) if not row[j].is_zero()), None)
        if lead is None:
            kernel.append(row[width:])
        else:
            inv = row[lead].invert()
            pivots.append((lead, [v * inv for v in row]))
            pivots.sort(key=lambda t: t[0])
    rank = len(pivots)
    assert rank == row_echelon_rank(runner.monomial_series(e, prec) for e in mons)
    assert len(mons) - rank == len(kernel)
    for vec in kernel:
        acc = QSeries.zero(ctx, prec)
        for c, e in zip(vec, mons):
            if not c.is_zero():
                acc = acc + runner.monomial_series(e, prec).scale(c)
        assert acc.is_zero()


def prop_rank_stabilization(case_label: str = "7", j2: int = 10):
    case = CAT.cases[case_label]
    bound, dim = CAT.sturm2(case.group, j2), dim_or_none(CAT, case, j2)
    ranks = [CaseRunner(CAT, case, prec=bound + extra, width=bound + extra).span_rank(j2, dim)
             for extra in (0, 3, GUARD)]
    assert ranks[0] == ranks[1] == ranks[2]


def test_field_axioms():
    prop_field_axioms(20260809)


def test_conj_involution():
    prop_conj_involution(426)


def test_v_operator_properties():
    prop_v_operator(1137)


def test_character_multiplicativity():
    prop_character_multiplicativity(5533)


def test_character_orthogonality():
    prop_character_orthogonality()


def test_rank_nullity_consistency():
    prop_rank_nullity("9", 8)
    prop_rank_nullity("14h9", 8)


def test_rank_stabilization():
    prop_rank_stabilization("7", 10)
    prop_rank_stabilization("half8", 7)


# -- reduction mod p ---------------------------------------------------------

MODP_CONDUCTORS = (1, 3, 4, 5, 8, 12)
# the largest width with each bit length, and the smallest with the next
EDGE_WIDTHS = tuple(w for b in range(1, 13) for w in ((1 << b) - 1, 1 << b))


def schoolbook_mul_mod(a, b, p):
    n = len(a)
    return [sum(a[i] * b[k - i] for i in range(k + 1)) % p for k in range(n)]


def list_rank(rows, p):
    """Rank over F_p by elimination on lists; oracle for the packed rank."""
    pivots = []
    for row in rows:
        row = [x % p for x in row]
        for col, prow in pivots:
            c = row[col]
            if c:
                row = [(x - c * y) % p for x, y in zip(row, prow)]
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is not None:
            inv = pow(row[lead], -1, p)
            pivots.append((lead, [v * inv % p for v in row]))
    return len(pivots)


@st.composite
def _residue_lists(draw, L):
    n = draw(st.one_of(st.integers(1, 48), st.sampled_from(EDGE_WIDTHS[:14])))
    red = modp.reduction(cyclo_context(L), n)
    entry = st.one_of(st.integers(0, red.p - 1), st.sampled_from([0, 1, red.p - 1]))
    return (red, draw(st.lists(entry, min_size=n, max_size=n)),
            draw(st.lists(entry, min_size=n, max_size=n)))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(MODP_CONDUCTORS), st.data())
def test_packed_product_mod_p_equals_schoolbook(L, data):
    red, a, b = data.draw(_residue_lists(L))
    got = red.mul(modp.pack(a), modp.pack(b))
    assert list(unpack(got, red.n)) == schoolbook_mul_mod(a, b, red.p)


def test_packed_product_mod_p_full_slots():
    # every product slot at its largest: n terms of (p-1)^2, at the widest n of
    # each prime; slot k of the square is (k+1)(p-1)^2 = k+1 (mod p)
    for L in MODP_CONDUCTORS:
        for n in EDGE_WIDTHS:
            red = modp.reduction(cyclo_context(L), n)
            p, full = red.p, [red.p - 1] * n
            want = [(k + 1) % p for k in range(n)]
            a = modp.pack(full)
            assert list(unpack(red.mul(a, a), n)) == want
            if n <= 64:
                assert schoolbook_mul_mod(full, full, p) == want


def test_packed_rank_full_slots():
    # pivots e_i + e_(n-1) scale to lead 1 with negation p-1 in slots i and n-1;
    # a row that is p-1 in slots 0..n-2 takes c = p-1 at each of them, so its
    # last slot collects (n-1) * (p-1)^2 on top of its own entry, and ends at
    # that entry plus n-1 (mod p); L = 1 gives the largest prime below each ceiling
    for n in (w for w in EDGE_WIDTHS if w < 512):
        red = modp.reduction(cyclo_context(1), n)
        p = red.p
        pivots = [[int(j == i or j == n - 1) for j in range(n)] for i in range(n - 1)]
        full = [p - 1] * n  # ends at n - 2, zero only for n = 2
        in_span = [p - 1] * (n - 1) + [(1 - n) % p]  # ends at 0
        for extra, want in ((full, n - int(n == 2)), (in_span, n - 1)):
            rows = pivots + [extra]
            basis = modp.Echelon(red)
            assert [basis.insert(modp.pack(r)) for r in rows] == [True] * (n - 1) + [want == n]
            assert len(basis) == want, (n, p)
            if n <= 64:
                assert list_rank(rows, p) == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MODP_CONDUCTORS), st.integers(1, 10), st.integers(1, 40),
       st.integers(0, 10), st.data())
def test_packed_rank_equals_list_elimination(L, nrows, n, inner, data):
    red = modp.reduction(cyclo_context(L), n)
    p = red.p
    entry = st.one_of(st.integers(0, p - 1), st.sampled_from([0, 1, p - 1]))
    # a product of nrows x inner and inner x n matrices, plus sparse rows: rank at most inner
    left = [data.draw(st.lists(entry, min_size=inner, max_size=inner)) for _ in range(nrows)]
    right = [data.draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(inner)]
    rows = [[sum(a * right[k][j] for k, a in enumerate(row)) % p for j in range(n)]
            for row in left]
    rows += data.draw(st.lists(st.lists(st.sampled_from([0, 0, 1, p - 1]), min_size=n, max_size=n),
                               max_size=3))
    rank = list_rank(rows, p)
    # grown one row at a time and never stopped: a row is inserted exactly when
    # it raises the rank of the rows before it, and the length is the rank so far
    basis = modp.Echelon(red)
    for i, r in enumerate(rows):
        assert basis.insert(modp.pack(r)) == (list_rank(rows[:i + 1], p) > list_rank(rows[:i], p))
        assert len(basis) == list_rank(rows[:i + 1], p)
    assert len(basis) == rank
    # the inserted rows are independent mod p, and inserting any row again adds nothing
    kept = [r for i, r in enumerate(rows) if list_rank(rows[:i + 1], p) > list_rank(rows[:i], p)]
    assert list_rank(kept, p) == len(kept) == rank
    assert not any(basis.insert(modp.pack(r)) for r in rows) and len(basis) == rank


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MODP_CONDUCTORS), st.integers(1, 40), st.data())
def test_packed_inverse_is_the_power_series_inverse(L, n, data):
    """The inverse mod (p, q^n) of a packed row with a nonzero constant term
    times the row is 1, by the packed product and by the schoolbook one: it
    is the one inverse of the truncated series."""
    red = modp.reduction(cyclo_context(L), n)
    p = red.p
    entry = st.one_of(st.integers(0, p - 1), st.sampled_from([0, 1, p - 1]))
    a = [data.draw(st.integers(1, p - 1))] + data.draw(st.lists(entry, min_size=n - 1,
                                                                max_size=n - 1))
    inv = red.inverse(modp.pack(a))
    assert red.mul(modp.pack(a), inv) == 1
    assert schoolbook_mul_mod(a, list(unpack(inv, n)), p) == [1] + [0] * (n - 1)


def monomial_ranks(rows, weights2, k2s, p):
    """The rank over F_p of the truncated products of the generator rows
    (lists of residues) over every monomial of each doubled weight in k2s, by
    schoolbook products and list elimination; oracle for the filtration."""
    n, out = len(rows[0]), []
    for k2 in k2s:
        products = []
        for m in weighted_monomials(weights2, k2):
            row = [1] + [0] * (n - 1)
            for i, e in enumerate(m):
                for _ in range(e):
                    row = schoolbook_mul_mod(row, rows[i], p)
            products.append(row)
        out.append(list_rank(products, p))
    return out


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MODP_CONDUCTORS), st.integers(1, 12), st.integers(1, 5),
       st.sampled_from(["first", "later", "none"]), st.integers(0, 2), st.integers(0, 10),
       st.data())
def test_each_filtration_rank_is_the_rank_of_every_monomial(L, n, ngens, unit, start, top, data):
    """The filtration's rank at each weight equals the rank mod p of every
    monomial's packed row, for generator rows with relations among their
    monomials: a generator may be a product of two earlier ones, of the sum
    of their weights, a multiple of an earlier one, or a power of q.  The
    draws have a unit generator first, one behind generators of zero or
    random constant term (so that the first unit may come earlier), or none,
    where each weight gets a basis of its own.  The first rank asked for may
    be above weight 0, as a kernel check's first weight is the lattice step;
    the weights below are processed all the same."""
    red = modp.reduction(cyclo_context(L), n)
    p = red.p
    entry = st.one_of(st.integers(0, p - 1), st.sampled_from([0, 0, 1, p - 1]))
    rows, weights2 = [], []
    for i in range(ngens):
        kind = data.draw(st.sampled_from(["random", "product", "multiple", "power"] if i else
                                         ["random", "power"]))
        if kind == "product":
            a, b = data.draw(st.integers(0, i - 1)), data.draw(st.integers(0, i - 1))
            rows.append(schoolbook_mul_mod(rows[a], rows[b], p))
            weights2.append(weights2[a] + weights2[b])
            continue
        if kind == "multiple":
            a = data.draw(st.integers(0, i - 1))
            c = data.draw(st.integers(1, p - 1))
            rows.append([c * x % p for x in rows[a]])
            weights2.append(weights2[a])
            continue
        if kind == "power":
            rows.append([int(j == data.draw(st.integers(0, n))) for j in range(n)])
        else:
            rows.append(data.draw(st.lists(entry, min_size=n, max_size=n)))
        weights2.append(data.draw(st.integers(1, 4)))
    at = 0 if unit == "first" else data.draw(st.integers(0, ngens - 1))
    for i, row in enumerate(rows):
        if unit == "none" or (unit == "later" and i < at and data.draw(st.booleans())):
            row[0] = 0
        elif i == at:
            row[0] = data.draw(st.integers(1, p - 1))
    filtration = Filtration(red, [modp.pack(r) for r in rows], tuple(weights2))
    first = next((i for i, r in enumerate(rows) if r[0]), None)
    assert filtration.unit == first
    k2s = range(start, start + top + 1)
    assert [filtration.rank(k2) for k2 in k2s] == monomial_ranks(rows, weights2, k2s, p)
    assert len(filtration.ranks) == k2s[-1] + 1
    if first is None:  # a fresh basis per weight
        assert sorted(filtration.chains) == list(range(k2s[-1] + 1))
    else:
        assert sorted(filtration.chains) == list(range(min(weights2[first], k2s[-1] + 1)))


_KERNELS = [label for label in sorted(CAT.cases) if not check_plan(CAT, "kernel", label).skip]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(_KERNELS), st.integers(2, 8))
def test_a_kernel_filtration_ranks_every_monomial_from_the_lattice_step(label, kmax2):
    """A kernel check asks for its first rank at the lattice step, not at 0;
    at each of its weights its filtration's rank equals the rank mod p of
    every monomial of the presentation's generators at the plan's width."""
    plan = check_plan(CAT, "kernel", label, kmax2)
    runner = CaseRunner(CAT, CAT.cases[label], True, plan.prec, plan.width)
    red = runner.filtration.red
    rows = [list(unpack(red.series(runner.gen_series(i, plan.prec)), plan.width))
            for i in range(len(runner.gens))]
    assert plan.weights2[0] in (1, 2)
    assert [runner.filtration.rank(j2) for j2 in plan.weights2] == \
        monomial_ranks(rows, runner.weights2, plan.weights2, red.p) == list(plan.dims)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.integers(0, modp.SLOT), st.sampled_from([0, 1, modp.SLOT])),
                max_size=70))
def test_pack_unpack_round_trip(xs):
    packed = modp.pack(xs)
    assert packed == sum(x << 64 * j for j, x in enumerate(xs))
    assert unpack(packed, len(xs)) == tuple(xs)


def test_reduction_primes():
    for L in MODP_CONDUCTORS + (2, 6, 7, 10):
        ctx = cyclo_context(L)
        for n in (0, 1, 24, 48, 255, 256, 1023, 1024):
            ceiling = modp.prime_ceiling(n)
            assert ceiling == 1 << (64 - n.bit_length()) // 2
            red = modp.reduction(ctx, n)
            assert red is modp.reduction(ctx, n) and red.n == n
            p = red.p
            assert p < ceiling and p % L == 1 % L and modp.is_prime(p)
            # no slot carries, in products or in elimination
            assert n * (p - 1) ** 2 + p < 1 << 64
            # one prime per width: no prime = 1 (mod L) lies between p and the ceiling
            assert not [q for q in range(p + L, ceiling, L) if modp.is_prime(q)]
            # zeta goes to an element of order exactly L
            r = red.series(ctx.zeta_power(1))
            assert pow(r, L, p) == 1
            assert all(pow(r, d, p) != 1 for d in range(1, L))
    # widths 64-255 share the ceiling 2^28; a width of 256 or more is needed to reach 2^27
    assert {modp.prime_ceiling(n) for n in range(64, 256)} == {1 << 28}
    # a width whose ceiling is 2 has no prime
    assert modp.reduction(cyclo_context(1), 1 << 60) is None


def test_packed_ops_refuse_a_prime_at_the_ceiling():
    for n in (1, 24, 255, 256):
        ceiling = modp.prime_ceiling(n)
        row = modp.pack([1] * n)
        red = modp.reduction(cyclo_context(1), n)
        below = modp.Reduction(red.p, n, red.powers)
        assert modp.Echelon(below).insert(row)
        assert unpack(below.mul(row, 1), n) == (1,) * n
        for p in (ceiling, ceiling + 1):
            with pytest.raises(ValueError, match="not below"):
                modp.Reduction(p, n, (1,))


def test_is_prime_small_numbers():
    sieve = [n for n in range(2, 2000) if all(n % d for d in range(2, int(n ** 0.5) + 1))]
    assert [n for n in range(2000) if modp.is_prime(n)] == sieve
    assert modp.is_prime(2**61 - 1) and not modp.is_prime(2**61 + 1)
    assert not modp.is_prime(3215031751)  # a strong pseudoprime to the bases 2, 3, 5 and 7


def _cyclo(ctx, coords):
    return _reduce(ctx, [Fraction(n, d) for n, d in coords])


_COORDS = st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 9)), min_size=1, max_size=12)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(MODP_CONDUCTORS), _COORDS, _COORDS)
def test_reduction_is_a_ring_map(L, xs, ys):
    ctx = cyclo_context(L)
    x, y = _cyclo(ctx, xs), _cyclo(ctx, ys)
    for red in (modp.reduction(ctx, 1), modp.reduction(ctx, 256)):
        p = red.p
        assert red.series(x * y) == red.series(x) * red.series(y) % p
        assert red.series(x + y) == (red.series(x) + red.series(y)) % p
        if not x.is_zero():
            assert red.series(x.invert()) * red.series(x) % p == 1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MODP_CONDUCTORS), st.lists(_COORDS, min_size=1, max_size=20), st.data())
def test_reduced_series_product_is_the_product_of_reductions(L, fs, data):
    ctx = cyclo_context(L)
    f = series_of(ctx, [_cyclo(ctx, c) for c in fs])
    g = series_of(ctx, [_cyclo(ctx, data.draw(_COORDS)) for _ in fs])
    n = len(fs)
    red = modp.reduction(ctx, n)
    product = red.mul(red.series(f), red.series(g))
    assert red.series(f * g) == product
    assert [red.series(c) for c in (f * g).coeffs] == list(unpack(product, n))

import json
import random
from fractions import Fraction
from importlib import resources
from itertools import product
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfring import cli, exprs, groebner, modp, verify
from mfring.catalog import Catalog, Relation, load_catalog
from mfring.cyclo import cyclo_context
from mfring.errors import PrecisionTooLow, UnknownIdentity
from mfring.qseries import QSeries
from mfring.verify import (
    GUARD,
    CaseRunner,
    certified_rank,
    check_plan,
    dim_or_none,
    full_report,
    row_echelon_rank,
    scheduled_checks,
    verify_hilbert,
    verify_identity,
    verify_integrality,
    verify_kernel,
    verify_relations,
    verify_span,
    weighted_monomials,
)

from _series import series_of

CAT = load_catalog()
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "verify_all.json"


def _shipped():
    return json.loads(resources.files("mfring").joinpath("data/catalog.json").read_text())


def _count_exact_ranks(monkeypatch) -> list:
    """Record the rows every exact elimination reads from now on, one list
    per elimination."""
    seen = []

    def counted(rows):
        read = []
        seen.append(read)

        def tally():
            for row in rows:
                read.append(row)
                yield row
        return row_echelon_rank(tally())

    monkeypatch.setattr(verify, "row_echelon_rank", counted)
    return seen


def _count_bases(monkeypatch) -> list:
    """Record the leading monomials of every Gröbner basis built from now on."""
    built = []
    leading_monomials = groebner.leading_monomials

    def counted(polys, weights2, top2):
        built.append(leading_monomials(polys, weights2, top2))
        return built[-1]

    monkeypatch.setattr(groebner, "leading_monomials", counted)
    return built


def _count_rank_paths(monkeypatch) -> list:
    """Record (bound, rank mod p, exact eliminations) for every certified rank
    from now on."""
    paths = []
    exact = _count_exact_ranks(monkeypatch)
    certified = verify.certified_rank

    def recorded(bound, rank_mod_p, exact_rows):
        before = len(exact)
        out = certified(bound, rank_mod_p, exact_rows)
        paths.append((bound, rank_mod_p, len(exact) - before))
        return out

    monkeypatch.setattr(verify, "certified_rank", recorded)
    return paths


def _count_offered(monkeypatch) -> list:
    """Record (basis, row, whether it was inserted) for every row offered to
    an echelon basis mod p from now on."""
    offered = []
    insert = modp.Echelon.insert

    def recorded(basis, row):
        offered.append((basis, row, insert(basis, row)))
        return offered[-1][2]

    monkeypatch.setattr(modp.Echelon, "insert", recorded)
    return offered


def _count_filtrations(monkeypatch) -> list:
    """Record every Filtration built from now on."""
    built = []
    init = verify.Filtration.__init__

    def recorded(filtration, red, rows, weights2):
        init(filtration, red, rows, weights2)
        built.append(filtration)

    monkeypatch.setattr(verify.Filtration, "__init__", recorded)
    return built


def _count_reduced_series(monkeypatch) -> list:
    """Record the width of every series reduced mod p from now on."""
    widths = []
    series = modp.Reduction.series

    def recorded(red, f):
        widths.append(red.n)
        return series(red, f)

    monkeypatch.setattr(modp.Reduction, "series", recorded)
    return widths


def _full(filtration, m: tuple[int, ...]) -> tuple[int, ...]:
    """A monomial in the g-free generators of a filtration, over all the
    generators: exponent 0 at the unit generator g."""
    g = filtration.unit
    return m if g is None else m[:g] + (0,) + m[g:]


def _candidates(filtration, k2: int) -> list[tuple]:
    """The candidates (m, i, b) a filtration offers at doubled weight k2, once
    the weights below are processed: the same call as its own."""
    return groebner.border(filtration.weights2, filtration.inserted.__getitem__, k2)


def test_weighted_monomial_counts():
    assert len(weighted_monomials([2, 2, 2], 4)) == 6
    assert len(weighted_monomials([2, 4, 6], 12)) == 7
    assert set(weighted_monomials([8, 12], 24)) == {(3, 0), (0, 2)}
    assert weighted_monomials([2, 4], 0) == [(0, 0)]
    assert weighted_monomials([4], 2) == []


def test_monomials_are_lexicographically_ordered_and_deterministic():
    mons = weighted_monomials([2, 2, 4], 8)
    assert mons == sorted(mons, reverse=True)
    assert mons == weighted_monomials([2, 2, 4], 8)


def test_monomials_come_sorted_without_a_sort():
    # the recursion runs each exponent down from its largest value, so its
    # output is already in descending order; nothing repeats, nothing is missed
    rng = random.Random(14)
    total = 0
    for _ in range(3000):
        weights2 = [rng.randint(1, 8) for _ in range(rng.randint(1, 5))]
        k2 = rng.randint(0, 24)
        mons = weighted_monomials(weights2, k2)
        assert mons == sorted(mons, reverse=True), (weights2, k2)
        assert len(set(mons)) == len(mons)
        assert all(sum(map(mul, m, weights2)) == k2 for m in mons)
        if len(weights2) <= 3:
            every = product(*(range(k2 // w + 1) for w in weights2))
            assert len(mons) == sum(sum(map(mul, m, weights2)) == k2 for m in every)
        total += len(mons)
    assert total > 10_000


def _left_nullspace(rows, ctx):
    """Exact basis of {c : sum c_i row_i = 0}; oracle for rank-nullity."""
    n = len(rows)
    width = len(rows[0]) if rows else 0
    aug = []
    for i, row in enumerate(rows):
        tail = [ctx.one if j == i else ctx.zero for j in range(n)]
        aug.append(list(row) + tail)
    pivots = []
    kernel = []
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
    return kernel


def _runner(label: str, prec: int, width: int, presentation: bool = False) -> CaseRunner:
    """A runner of the shipped case for one check at this precision and rank width."""
    return CaseRunner(CAT, CAT.cases[label], presentation, prec, width)


def test_span_rank_examples():
    width = CAT.sturm2(CAT.cases["5"].group, 6)
    prec = width + GUARD
    five = _runner("5", prec, width)
    # weight 3 at level 5
    assert five.span_rank(6, dim_or_none(CAT, five.case, 6)) == 4
    assert five.span_rank(6, 5) == 4  # a bound no prime reaches: the exact rank
    assert _runner("5", 4, 1).span_rank(0, 1) == 1
    bound = CAT.sturm2(CAT.cases["1"].group, 24)
    one = _runner("1", bound + GUARD, bound)
    assert one.span_rank(24, dim_or_none(CAT, one.case, 24)) == 2
    with pytest.raises(PrecisionTooLow):
        _runner("5", 3, 3).span_rank(12, dim_or_none(CAT, five.case, 12))
    with pytest.raises(ValueError, match="exceeds the precision"):
        _runner("5", prec, prec + 1).span_rank(6, 4)


def test_rank_nullity_against_explicit_nullspace():
    runner = CaseRunner(CAT, CAT.cases["9"], presentation=True)
    j2 = 8  # weight 4
    prec = runner.sturm2(j2) + GUARD
    mons = weighted_monomials(runner.weights2, j2)
    rows = [runner.monomial_series(e, prec).coeffs for e in mons]
    rank = row_echelon_rank(runner.monomial_series(e, prec) for e in mons)
    kernel = _left_nullspace(rows, runner.evaluator.ctx)
    assert len(mons) - rank == len(kernel)
    assert rank == dim_or_none(CAT, runner.case, j2)
    # each kernel vector really kills the series
    for vec in kernel[:3]:
        acc = runner.monomial_series(mons[0], prec).scale(vec[0])
        for c, e in zip(vec[1:], mons[1:]):
            acc = acc + runner.monomial_series(e, prec).scale(c)
        assert acc.is_zero()


def test_rank_invariant_under_generator_scaling():
    runner = CaseRunner(CAT, CAT.cases["5"])
    prec = runner.sturm2(8) + GUARD
    mons = weighted_monomials(runner.weights2, 8)
    rows = [runner.monomial_series(e, prec) for e in mons]
    scaled = [r.scale(Fraction(7, 3)) for r in rows]
    assert row_echelon_rank(rows) == row_echelon_rank(scaled)


def test_rank_stabilizes_at_sturm_precision():
    case = CAT.cases["7"]
    bound, dim = CAT.sturm2(case.group, 12), dim_or_none(CAT, case, 12)
    assert _runner("7", bound, bound).span_rank(12, dim) == _runner(
        "7", bound + GUARD, bound + GUARD).span_rank(12, dim)


def test_relation_series_examples():
    runner = CaseRunner(CAT, CAT.cases["7"], presentation=True)
    o7 = CAT.cases["7"].presentation.relations[0]
    assert runner.relation_series(o7, 24).is_zero()
    # a single-variable polynomial evaluates to the form itself
    single = Relation("probe", 2, "fchi7")
    assert runner.relation_series(single, 8) == runner.evaluator.series("f[1;chi7]", 8)


def test_verify_span_reports():
    report = verify_span(CAT, "7", kmax2=10)
    assert report.status == "pass"
    assert report.details["ranks"] == [1, 3, 5, 7, 9, 11]
    assert report.details["dims"] == [1, 3, 5, 7, 9, 11]
    report = verify_span(CAT, "11h3", kmax2=12)
    assert report.details["ranks"] == [1, 1, 2, 3, 4, 5, 6]
    report = verify_span(CAT, "13h3", kmax2=8)
    assert report.details["dims"] == [1, 2, 3, 8, 9]
    assert report.status == "pass"


def test_verify_span_reports_precision_used():
    runner = CaseRunner(CAT, CAT.cases["9"])
    default = verify_span(CAT, "9")
    assert default.precision == runner.sturm2(default.k_range[1]) + GUARD
    # 12 more coefficients give the same ranks at the plan's width
    plan = check_plan(CAT, "span", "9")
    raised = _runner("9", default.precision + 12, plan.width)
    assert [raised.span_rank(j2, d) for j2, d in zip(plan.weights2, plan.dims)] == \
        default.details["ranks"]


def test_verify_kernel_examples():
    report = verify_kernel(CAT, "11h3", kmax2=12)
    assert report.status == "pass"
    assert report.details["weights2"][-1] == 12
    assert report.details["kernel_dims"][-1] == 1
    assert report.details["ideal_dims"][-1] == 1
    report = verify_kernel(CAT, "7", kmax2=4)
    assert report.status == "pass"
    assert report.details["kernel_dims"] == [0, 1]  # weight 2: 6 monomials - dim 5
    nine = verify_kernel(CAT, "9", kmax2=6)
    assert nine.status == "pass"
    assert nine.details["weights2"] == [2, 4, 6]
    assert nine.details["kernel_dims"][-1] == 10
    assert nine.details["ideal_dims"][-1] == 10
    # the twelve degree-3 multiples of the three relations have rank 10
    runner = CaseRunner(CAT, CAT.cases["9"], presentation=True)
    count = sum(len(weighted_monomials(runner.weights2, 6 - r.w2))
                for r in CAT.cases["9"].presentation.relations)
    assert count == 12


def test_verify_kernel_fails_on_a_nonvanishing_relation(monkeypatch):
    raw = _shipped()
    seven = next(c for c in raw["cases"] if c["label"] == "7")
    # doctored: homogeneous of weight 2 but equal to 2*frho7^2, not zero
    seven["presentation"]["relations"][0]["poly"] = "frho7^2 + fchi7*fchi7_bar"
    cat = Catalog(raw)
    paths = _count_rank_paths(monkeypatch)
    exact = _count_exact_ranks(monkeypatch)  # every elimination, in certified_rank or not
    built = _count_bases(monkeypatch)
    report = verify_kernel(cat, "7", kmax2=8)
    assert report.status == "fail"
    assert report.details["first_failure"] == {"relation_nonzero": "O7"}
    # the ideal no longer lies in the kernel, but its exact basis still gives its
    # dimension at every weight: one basis is built, each span rank is decided by
    # the rank mod p of the check's one filtration, equal to dim, and nothing is
    # eliminated exactly
    weights2 = report.details["weights2"]
    assert weights2 == [2, 4, 6, 8]
    assert len(built) == 1
    assert [(rank_mod_p == bound, n) for bound, rank_mod_p, n in paths] == [(True, 0)] * 4
    assert exact == []
    assert report.details["ideal_dims"] == [0, 1, 3, 6]
    assert report.details["kernel_dims"][:2] == [0, 1]


def _dim_one_too_high(raw, label: str, from_j2: int, only: bool = False):
    """Raise the dimension rows of a case's group by one from doubled weight
    from_j2 on, or at from_j2 only; the group's other cases read them too."""
    case = next(c for c in raw["cases"] if c["label"] == label)
    group = next(g for g in raw["groups"] if g["label"] == case["group"])
    high = [dict(br, jmin=max(br.get("jmin", 0), from_j2), c=br.get("c", 0) + 1)
            for br in group["dim"]]
    if only:  # a modulus above every weight checked confines the rows to from_j2
        high = [dict(br, mod=1 << 16, res=[from_j2]) for br in high
                if from_j2 % br.get("mod", 1) in br.get("res", [0])]
    group["dim"] = high + group["dim"]
    return Catalog(raw)


def test_a_dimension_one_too_high_fails_with_the_exact_rank(monkeypatch):
    cat = _dim_one_too_high(_shipped(), "7", 8)
    exact = _count_exact_ranks(monkeypatch)
    span = verify_span(cat, "7")
    assert span.status == "fail"
    golden = json.loads(GOLDEN.read_text())
    # the ranks are the exact ones, not the catalog's dimensions
    assert span.details["ranks"] == golden["7|span"]["details"]["ranks"]
    assert span.details["dims"][4:] == [r + 1 for r in span.details["ranks"][4:]]
    assert span.details["first_failure"] == {"j2": 8, "rank": 9, "dim": 10}
    doctored = [j2 for j2 in span.details["weights2"] if j2 >= 8]
    assert len(exact) == len(doctored)  # no prime reached the doctored bound: exact fallback
    exact.clear()
    kernel = verify_kernel(cat, "7")
    assert kernel.status == "fail"
    assert kernel.details["first_failure"] == {"j2": 8, "rank": 9, "dim": 10,
                                               "dim_kernel": 6, "dim_ideal": 6}
    assert kernel.details["kernel_dims"] == golden["7|kernel"]["details"]["kernel_dims"]
    assert kernel.details["ideal_dims"] == golden["7|kernel"]["details"]["ideal_dims"]
    # the q-expansion matrices of the doctored weights fell back; every ideal was certified
    assert len(exact) == len(doctored)
    assert all(isinstance(row, QSeries) for rows in exact for row in rows)


def test_a_dimension_wrong_at_one_weight_reports_the_exact_rank_at_every_weight(monkeypatch):
    """Only the doctored weight falls back to exact elimination.  The
    filtration does not read the dimensions, so it offers and inserts the
    rows it does with the shipped catalog, and the weights above are proved
    mod p as before."""
    cat = _dim_one_too_high(_shipped(), "12", 4, only=True)
    paths = _count_rank_paths(monkeypatch)
    built = _count_filtrations(monkeypatch)
    span = verify_span(cat, "12")
    weights2, prec = span.details["weights2"], span.precision
    width = check_plan(cat, "span", "12").width
    assert [f.red.n for f in built] == [width]
    assert span.status == "fail"
    assert span.details["first_failure"] == {"j2": 4, "rank": 9, "dim": 10}
    assert [d for j2, d, r in zip(weights2, span.details["dims"], span.details["ranks"])
            if d != r] == [10]
    # the doctored weight's rank mod p is the true dimension, one below the bound
    assert paths == [(dim, 9, 1) if j2 == 4 else (dim, dim, 0)
                     for j2, dim in zip(weights2, span.details["dims"])]
    runner = CaseRunner(cat, cat.cases["12"], prec=prec, width=width)
    assert span.details["ranks"] == [
        row_echelon_rank(runner.monomial_series(e, prec)
                         for e in weighted_monomials(runner.weights2, j2))
        for j2 in weights2]
    shipped = verify_span(CAT, "12")
    assert shipped.status == "pass" and len(built) == 2
    assert built[0].inserted == built[1].inserted and built[0].ranks == built[1].ranks


def _divided(m: tuple[int, ...]):
    """(i, m / x_i) for each variable x_i that divides the monomial m."""
    return [(i, m[:i] + (e - 1,) + m[i + 1:]) for i, e in enumerate(m) if e]


@pytest.mark.parametrize("label, kmax2", [("3", 24), ("11h3", 16), ("12", 12), ("13h3", 8),
                                          ("25h6", 10), ("half12", 12)])
def test_ladder_rows_are_distinct_monomials_from_the_bases_below(label, kmax2):
    """Every weight from 0 to the top is processed.  Its candidates are part
    of the ladder, the rows x_i * b for a generator x_i other than the unit
    g and b inserted one generator weight down: distinct g-free monomials of
    that weight in ascending lexicographic order, no more than the rows
    inserted below, and exactly those whose every quotient by a generator
    was inserted.  The rows inserted lie among them, in order, and are
    closed under division; there is one basis per residue class mod the
    weight of g, and its size, the rows inserted in its class so far, is
    the rank that reaches dim."""
    plan = check_plan(CAT, "span", label, kmax2)
    runner = _runner(label, plan.prec, plan.width)
    dims = dict(zip(plan.weights2, plan.dims))
    filt = runner.filtration
    w, weights2 = filt.step, filt.weights2
    assert w == runner.weights2[filt.unit] and len(weights2) == len(runner.weights2) - 1
    for j2 in range(kmax2 + 1):
        rank = filt.rank(j2)
        rows = [m for m, _, _ in _candidates(filt, j2)]
        assert rows == sorted(set(rows))
        assert set(rows) <= set(weighted_monomials(weights2, j2))
        if j2:
            lower = {i: set(filt.inserted[j2 - w2]) for i, w2 in enumerate(weights2) if w2 <= j2}
            ladder = {b[:i] + (b[i] + 1,) + b[i + 1:] for i, bs in lower.items() for b in bs}
            assert len(ladder) <= sum(map(len, lower.values()))
            assert set(rows) == {m for m in ladder
                                 if all(b in lower[i] for i, b in _divided(m))}
        inserted = filt.inserted[j2]
        assert inserted == [m for m in rows if m in set(inserted)]
        for m in inserted:
            for i, b in _divided(m):
                assert b in filt.inserted[j2 - weights2[i]], (j2, m)
        assert rank == len(filt.chains[j2 % w]) == sum(
            len(filt.inserted[j]) for j in range(j2 % w, j2 + 1, w))
        if j2 in dims:
            assert runner.span_rank(j2, dims[j2]) == dims[j2] == rank
    assert sorted(filt.chains) == list(range(min(w, kmax2 + 1)))


def _packed_rows(runner):
    """The packed row of each monomial of a runner at its width, built here as
    its first generator's reduced row times the row of the rest."""
    red = modp.reduction(runner.evaluator.ctx, runner.width)
    gens = [red.series(runner.gen_series(i, runner.prec)) for i in range(len(runner.gens))]
    rows = {}

    def row(m: tuple[int, ...]) -> int:
        if m not in rows:
            i = next((j for j, e in enumerate(m) if e), None)
            rows[m] = 1 if i is None else red.mul(gens[i], row(m[:i] + (m[i] - 1,) + m[i + 1:]))
        return rows[m]
    return red, row


@pytest.mark.parametrize("label", ["25h6", "half12", "16h9", "13h3"])
def test_each_border_rank_is_the_rank_mod_p_of_every_monomial(label):
    """To doubled weight 32, each rank of the filtration is the rank under the
    same reduction of every monomial of its weight.  Its rows inserted at a
    weight are those that raise the rank when the monomials that contain the
    unit g go in first and then the g-free ones in ascending lexicographic
    order: the candidates miss none."""
    report = verify_span(CAT, label, kmax2=32)
    assert report.status == "pass"
    width = check_plan(CAT, "span", label, 32).width
    runner = _runner(label, report.precision, width)
    filt = runner.filtration
    red, row = _packed_rows(runner)
    assert red is filt.red
    g = filt.unit
    for j2, dim in zip(report.details["weights2"], report.details["dims"]):
        assert filt.rank(j2) == dim
        mons = weighted_monomials(runner.weights2, j2)
        every = modp.Echelon(red)
        for m in mons:
            if m[g]:
                every.insert(row(m))
        raised = [m for m in sorted(mons) if not m[g] and every.insert(row(m))]
        assert raised == [_full(filt, m) for m in filt.inserted[j2]], j2
        assert len(every) == dim


def test_the_25h6_span_to_weight_16_ranks_only_ladder_rows(monkeypatch):
    """A count, not a timing: the span of 25h6 to weight 16 passes with one
    rank mod p per weight, equal to dim, and no exact elimination.  Its unit
    generator has weight 1, so the filtration inserts dim M_16 = 81 rows in
    all, and it offers 93, where the border of the bases proved at each
    weight read at least the sum of the dimensions, 697, and ranking the
    ladder of g_i times those bases read 2,317."""
    paths = _count_rank_paths(monkeypatch)
    offered = _count_offered(monkeypatch)
    report = verify_span(CAT, "25h6", kmax2=32)
    assert report.status == "pass"
    assert [(rank_mod_p == bound, n) for bound, rank_mod_p, n in paths] == \
        [(True, 0)] * len(report.details["weights2"])
    dims = dict(zip(report.details["weights2"], report.details["dims"]))
    assert sum(inserted for _, _, inserted in offered) == dims[32] == 81
    assert sum(dims.values()) == 697 and len(offered) == 93


def test_a_denominator_divisible_by_the_prime_falls_back_to_exact_elimination(monkeypatch):
    """A span generator divided by the prime of its check's width has no
    reduction mod that prime, so the check builds no filtration, ranks every
    weight by exact elimination and gives the golden report: scaling a
    generator changes no rank."""
    ctx = cyclo_context(4)
    red = modp.reduction(ctx, 3)
    x = ctx.from_rational(Fraction(1, red.p)) + ctx.zeta_power(1)
    with pytest.raises(ZeroDivisionError):
        red.series(x)
    plan = check_plan(CAT, "span", "7")
    p = modp.reduction(CAT.evaluator(CAT.cases["7"].L).ctx, plan.width).p
    raw = _shipped()
    gen = next(c for c in raw["cases"] if c["label"] == "7")["span_gens"][0]
    gen["expr"] = f"(scale 1/{p} {gen['expr']})"
    cat = Catalog(raw)
    paths = _count_rank_paths(monkeypatch)
    report = json.loads(verify_span(cat, "7").to_json())
    del report["elapsed_ms"]
    assert report == json.loads(GOLDEN.read_text())["7|span"]
    assert [(rank_mod_p, n) for _, rank_mod_p, n in paths] == [(None, 1)] * len(plan.weights2)
    assert CaseRunner(cat, cat.cases["7"], prec=plan.prec, width=plan.width).filtration is None


def _rank_mod_p(red, rows) -> int:
    """The rank mod p of QSeries rows: the size of an echelon basis of them."""
    basis = modp.Echelon(red)
    for row in rows:
        basis.insert(red.series(row))
    return len(basis)


def test_an_unreached_bound_falls_back_to_the_exact_rank(monkeypatch):
    ctx = cyclo_context(3)
    z = ctx.zeta_power(1)
    rows = [series_of(ctx, [ctx.one, z]), series_of(ctx, [z, z * z])]  # rank 1
    exact = _count_exact_ranks(monkeypatch)
    rank_mod_p = _rank_mod_p(modp.reduction(ctx, 2), rows)
    assert certified_rank(1, rank_mod_p, lambda: rows) == 1
    assert exact == []
    assert certified_rank(2, rank_mod_p, lambda: rows) == 1
    assert exact == [rows]
    assert certified_rank(0, 0, lambda: []) == 0
    # a bound below the rank mod p is wrong, and the exact rank says so
    assert certified_rank(0, rank_mod_p, lambda: rows) == 1
    assert exact == [rows, rows]
    # no prime p = 1 (mod 3) lies below the ceiling of this width, 2
    assert modp.reduction(ctx, 1 << 60) is None
    assert certified_rank(1, None, lambda: rows) == 1
    assert exact == [rows, rows, rows]


_ENTRY = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 3, 4, 5, 8, 12]), st.integers(1, 5), st.integers(1, 5),
       st.integers(1, 5), st.data())
def test_certified_rank_equals_the_exact_rank(L, nrows, ncols, inner, data):
    ctx = cyclo_context(L)
    z = ctx.zeta_power(1)

    def entry():
        a, b, d = data.draw(_ENTRY)
        return ctx.from_rational(Fraction(a, d)) + z * b

    # a product of nrows x inner and inner x ncols matrices: rank at most inner
    left = [[entry() for _ in range(inner)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(inner)]
    rows = [series_of(ctx, [sum((a * right[k][j] for k, a in enumerate(row)), ctx.zero)
                            for j in range(ncols)]) for row in left]
    rank = row_echelon_rank(rows)
    rank_mod_p = _rank_mod_p(modp.reduction(ctx, ncols), rows)
    assert rank_mod_p <= rank
    # the bound right, too high or too low: the exact rank either way
    for bound in {rank, rank + 1, max(rank - 1, 0), min(nrows, ncols, inner)}:
        assert certified_rank(bound, rank_mod_p, lambda: rows) == rank


def test_exact_elimination_reads_no_row_after_its_prec_th_pivot():
    """Rows of prec coefficients have rank at most prec, so the elimination
    stops at its prec-th pivot and never reads the rows after it."""
    ctx = cyclo_context(5)
    z = ctx.zeta_power(1)
    rows = [series_of(ctx, [z ** (i * j) for j in range(3)]) for i in range(3)]  # Vandermonde

    def then_fail():
        yield from (rows[0], rows[0].scale(z), rows[1], rows[2])
        raise AssertionError("a row after the third pivot was read")

    assert row_echelon_rank(then_fail()) == 3
    assert row_echelon_rank(rows[:2] + [rows[0] + rows[1]]) == 2
    assert row_echelon_rank([]) == 0


def _mutant_span(tmp_path, capsys, label: str, kmax: int, edit):
    """Exit code and JSON report, elapsed_ms aside, of ``verify span`` on a
    catalog file: the shipped one with the span generators of one case edited."""
    raw = _shipped()
    edit(next(c for c in raw["cases"] if c["label"] == label)["span_gens"])
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(raw))
    code = cli.main(["--catalog", str(path), "verify", "span", "--case", label,
                     "--kmax", str(kmax), "--output", "json"])
    report = json.loads(capsys.readouterr().out)
    del report["elapsed_ms"]
    return code, report


def _swap(name: str, expr: str):
    def edit(gens):
        next(g for g in gens if g["name"] == name)["expr"] = expr
    return edit


# a generator of the wrong level, each with the exact ranks of every monomial at
# the check's precision from the first weight whose rank mod p is not dim
_WRONG_LEVEL = {
    "25h6": ("beta25", "(v 2 beta25)", 7, 45, [1, 6, 17, 33, 45, 45, 45, 45],
             {"j2": 4, "rank": 17, "dim": 11}),
    "12": ("frho3v4", "(v 2 alpha12)", 10, 50, [1, 5, 12, 19, 26, 33, 40, 43, 42, 41, 40],
           {"j2": 4, "rank": 12, "dim": 9}),
}


def test_a_generator_of_the_wrong_level_fails_the_25h6_span_with_exact_ranks(
        tmp_path, capsys, monkeypatch):
    """beta25 replaced by (v 2 beta25), of level 50: at doubled weight 4 the
    weight-2 monomials have rank 17 mod p, above dim 11, and every weight from
    there on goes to exact elimination, which stops at its 45th pivot, the
    precision, long before the 462nd monomial of doubled weight 12."""
    exact = _count_exact_ranks(monkeypatch)
    name, expr, kmax, prec, ranks, first = _WRONG_LEVEL["25h6"]
    code, report = _mutant_span(tmp_path, capsys, "25h6", kmax, _swap(name, expr))
    assert code == 1
    assert report == {
        "case": "25h6", "check": "span", "k_range": [0, 14], "precision": prec, "status": "fail",
        "details": {"weights2": [0, 2, 4, 6, 8, 10, 12, 14], "ranks": ranks,
                    "dims": [1, 6, 11, 16, 21, 26, 31, 36], "first_failure": first}}
    assert len(exact) == 6
    assert 45 <= len(exact[4]) < len(weighted_monomials([2] * 6, 12)) == 462


def test_a_generator_of_the_wrong_level_fails_the_case_12_span_with_exact_ranks(
        tmp_path, capsys):
    """frho3v4 replaced by (v 2 alpha12), a cusp form: no generator is a unit
    mod p, so every weight is ranked on a basis of its own.  From doubled
    weight 4 to 18 the exact ranks exceed dim; at 20 the monomials vanish to
    order 10, so 50 coefficients hold their rank to 40, below dim 41."""
    name, expr, kmax, prec, ranks, first = _WRONG_LEVEL["12"]
    code, report = _mutant_span(tmp_path, capsys, "12", kmax, _swap(name, expr))
    assert code == 1
    assert report == {
        "case": "12", "check": "span", "k_range": [0, 20], "precision": prec, "status": "fail",
        "details": {"weights2": [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20], "ranks": ranks,
                    "dims": [1, 5, 9, 13, 17, 21, 25, 29, 33, 37, 41], "first_failure": first}}


@pytest.mark.parametrize("label", sorted(_WRONG_LEVEL))
def test_the_wrong_level_ranks_are_the_exact_ranks_of_every_monomial(label):
    """The pinned ranks of the two wrong-level mutants, derived here: dim
    where the rank mod p of every monomial at the plan's width equals it,
    and elsewhere the exact rank of every monomial at the plan's precision,
    from a runner of the mutant catalog that no check built.

    A rank mod p cannot exceed the width, so a wrong level is caught only
    where the monomials' rank passes dim within it: case 7 with (v 2 alpha7)
    still passes at ``--kmax`` 1 and 2, and typing each generator's level
    on load (ROADMAP item 1) is the guard against it."""
    name, expr, kmax, prec, ranks, first = _WRONG_LEVEL[label]
    raw = _shipped()
    _swap(name, expr)(next(c for c in raw["cases"] if c["label"] == label)["span_gens"])
    cat = Catalog(raw)
    plan = check_plan(cat, "span", label, 2 * kmax)
    assert plan.prec == prec
    runner = CaseRunner(cat, cat.cases[label], prec=plan.prec, width=plan.width)
    red, row = _packed_rows(runner)
    derived = []
    for j2, dim in zip(plan.weights2, plan.dims):
        mons = weighted_monomials(runner.weights2, j2)
        every = modp.Echelon(red)
        for m in mons:
            every.insert(row(m))
        derived.append(dim if len(every) == dim else row_echelon_rank(
            runner.monomial_series(m, prec) for m in mons))
    assert derived == ranks
    j2, rank, dim = next((j2, r, d) for j2, r, d in zip(plan.weights2, ranks, plan.dims) if r != d)
    assert {"j2": j2, "rank": rank, "dim": dim} == first
    assert (runner.filtration.unit is None) == (label == "12")


def test_a_dropped_generator_reads_every_monomial_of_each_short_weight(
        tmp_path, capsys, monkeypatch):
    """Case 12 without alpha12: from doubled weight 2 on, every rank falls one
    short of its dimension and far short of the precision, so exact elimination
    reads every monomial of the four generators left."""
    exact = _count_exact_ranks(monkeypatch)

    def drop(gens):
        gens.remove(next(g for g in gens if g["name"] == "alpha12"))

    code, report = _mutant_span(tmp_path, capsys, "12", 10, drop)
    assert code == 1
    weights2 = list(range(0, 21, 2))
    assert report == {
        "case": "12", "check": "span", "k_range": [0, 20], "precision": 50, "status": "fail",
        "details": {"weights2": weights2,
                    "ranks": [1] + [4 * j for j in range(1, 11)],
                    "dims": [1] + [4 * j + 1 for j in range(1, 11)],
                    "first_failure": {"j2": 2, "rank": 4, "dim": 5}}}
    assert [len(rows) for rows in exact] == [len(weighted_monomials([2] * 4, j2))
                                             for j2 in weights2[1:]]


def test_a_kernel_check_states_the_precision_its_relations_ran_at(monkeypatch):
    # at weight 1 the kernel's own cutoff is low; half12's relations need 18
    kernel, relation = check_plan(CAT, "kernel", "half12", 2), check_plan(CAT, "relation", "half12")
    assert kernel.cutoff == relation.cutoff == 18
    precs = []
    values = CaseRunner.relation_values

    def recorded(self):
        precs.append(self.prec)
        return values(self)

    monkeypatch.setattr(CaseRunner, "relation_values", recorded)
    report = verify_kernel(CAT, "half12", kmax2=2)
    assert report.status == "pass"
    assert precs == [report.precision] == [26]


@pytest.mark.parametrize("selector, label", [
    ("relations", "7"), ("span", "7"), ("kernel", "7"), ("identity", "c4_sq"),
], ids=["relation", "span", "kernel", "identity"])
def test_an_override_below_the_cutoff_is_refused(capsys, selector, label):
    """Every check runs at the precision of its plan, so verify takes no
    --prec: an override, below the cutoff or not, is an argparse usage error
    (exit 2) before any check runs, not a flag that is silently ignored."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", selector, "--case", label, "--prec", "2"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --prec 2" in err
    assert "Traceback" not in err


def test_every_scheduled_check_runs_at_its_cutoff_plus_guard_and_ranks_within_it():
    """Each identity, span, relation and kernel check full_report schedules
    has one precision, GUARD past its cutoff, and ranks mod p at a width no
    larger than it; its report states that precision.  A kernel's cutoff
    covers its relations'."""
    reports = {(r.check, r.case): r for r in full_report(CAT)}
    planned = 0
    for check, label in scheduled_checks(CAT):
        if check in ("hilbert", "integrality"):
            continue
        plan = check_plan(CAT, check, label)
        if plan.skip:
            assert reports[check, label].status == "skipped"
            continue
        assert plan.prec == plan.cutoff + GUARD, (check, label)
        assert plan.width <= plan.prec, (check, label)
        assert reports[check, label].precision == plan.prec, (check, label)
        planned += 1
    assert planned == 55
    plan = check_plan(CAT, "kernel", "7", 24)
    assert (plan.cutoff, plan.prec) == (26, 26 + GUARD)
    assert plan.width == max(max(CAT.sturm2("g7", j2), dim)
                             for j2, dim in zip(plan.weights2, plan.dims))


def test_verify_relations_states():
    assert verify_relations(CAT, "7").status == "pass"
    unknown = verify_relations(CAT, "13h3")
    assert unknown.status == "skipped"
    assert "unknown" in unknown.details["reason"]
    free = verify_relations(CAT, "5")
    assert free.status == "skipped"
    base_ext = verify_kernel(CAT, "16full")
    assert base_ext.status == "skipped"
    assert "base" in base_ext.details["reason"]


def test_verify_identity_and_errors():
    assert verify_identity(CAT, "c4_sq").status == "pass"
    with pytest.raises(UnknownIdentity):
        verify_identity(CAT, "nope")


def test_verify_integrality_negative_control():
    assert verify_integrality(CAT, "alpha1").status == "pass"
    bad = verify_integrality(CAT, "f[1;chi5]")
    assert bad.status == "fail"
    assert bad.details["first_failure"]["index"] == 0


def test_report_json_schema():
    report = verify_hilbert(CAT, "14h9")
    data = json.loads(report.to_json())
    assert set(data) == {"case", "check", "k_range", "precision", "status",
                         "details", "elapsed_ms"}
    assert data["status"] == "pass"


def test_full_batch_all_green(monkeypatch):
    """The default batch over the whole catalog: no failures, only the
    documented skip for the case whose relation ideal is unknown, and every
    rank decided modulo a prime."""
    exact = _count_exact_ranks(monkeypatch)
    reports = full_report(CAT)
    assert exact == []  # no exact elimination ran
    failures = [r for r in reports if r.status == "fail"]
    assert not failures, [(r.case, r.check, r.details) for r in failures]
    skipped = {(r.case, r.check) for r in reports if r.status == "skipped"}
    assert skipped == {("13h3", "relation")}
    covered = {(r.case, r.check) for r in reports}
    assert ("4", "span") in covered and ("16full", "relation") in covered
    # every rank and vanishing test ran at the one precision of the shared rule
    for r in reports:
        if r.check in ("identity", "span", "relation", "kernel") and r.status == "pass":
            plan = check_plan(CAT, r.check, r.case)
            assert r.precision == plan.cutoff + GUARD, (r.case, r.check)
    # every report field but elapsed_ms equals the benchmark's golden record
    golden = json.loads(GOLDEN.read_text())
    records = {}
    for r in reports:
        rec = json.loads(r.to_json())
        del rec["elapsed_ms"]
        records[f"{r.case}|{r.check}"] = rec
    assert len(records) == len(reports)
    assert sorted(records) == sorted(golden)
    for key, rec in records.items():
        assert rec == golden[key], key


def test_one_rank_mod_p_decides_every_shipped_rank(monkeypatch):
    """Every certified rank of full_report, and of the kernels of 9 and half12
    to doubled weight 20, is decided by a rank mod p equal to its bound, with
    no exact elimination.  Each span or kernel check builds one filtration,
    at its plan's rank width, below the check's precision: full_report's 249
    span and kernel ranks read 3,500 residues a row in all, where the
    precisions would give 5,492."""
    paths = _count_rank_paths(monkeypatch)
    built = _count_filtrations(monkeypatch)
    full_report(CAT)
    in_full_report = len(paths)
    widths, ranks, residues, precs = [], 0, 0, 0
    for check, label in scheduled_checks(CAT):  # the order full_report runs them in
        if check in ("span", "kernel"):
            plan = check_plan(CAT, check, label)
            assert plan.width < plan.prec, (check, label)
            widths.append(plan.width)
            ranks += len(plan.weights2)
            residues += plan.width * len(plan.weights2)
            precs += plan.prec * len(plan.weights2)
    assert [f.red.n for f in built] == widths and len(widths) == 29
    assert in_full_report == ranks == 249 and residues == 3500 and precs == 5492
    for label in ("9", "half12"):
        assert verify_kernel(CAT, label, kmax2=20).status == "pass"
    assert 0 < in_full_report < len(paths) and len(built) == 31
    assert all(rank_mod_p == bound and n == 0 for bound, rank_mod_p, n in paths)


def test_kernel_checks_insert_only_the_new_rows_of_each_weight(monkeypatch):
    """Every kernel check of full_report, and the kernels of 9 and half12 to
    doubled weight 20: one exact Gröbner basis per check gives every ideal
    dimension, with no exact elimination, and one filtration per check gives
    every span rank, processing every weight from 0 (which a kernel check
    does not report).  At each weight it inserts only the rows that raise
    the rank one unit weight down to the rank there, and over all of them it
    offers 229 rows and inserts 204 (a row count, not a timing)."""
    paths = _count_rank_paths(monkeypatch)
    exact = _count_exact_ranks(monkeypatch)
    built = _count_bases(monkeypatch)
    filtrations = _count_filtrations(monkeypatch)
    offered = _count_offered(monkeypatch)
    reports = full_report(CAT, checks={"kernel"})
    reports += [verify_kernel(CAT, label, kmax2=20) for label in ("9", "half12")]
    assert len(reports) == 10 and {r.status for r in reports} == {"pass"}
    assert exact == [] and len(built) == len(filtrations) == len(reports)
    weights = [j2 for r in reports for j2 in r.details["weights2"]]
    assert len(paths) == len(weights) == 88
    assert all(rank_mod_p == bound and n == 0 for bound, rank_mod_p, n in paths)
    bounds = iter(bound for bound, _, _ in paths)
    for report, f in zip(reports, filtrations):
        top, w = report.k_range[1], f.step
        assert len(f.ranks) == len(f.inserted) == top + 1
        assert [f.ranks[j2] for j2 in report.details["weights2"]] == [
            next(bounds) for _ in report.details["weights2"]]
        for j2 in range(top + 1):
            assert len(f.inserted[j2]) == f.ranks[j2] - (f.ranks[j2 - w] if j2 >= w else 0)
    inserted = sum(ins for _, _, ins in offered)
    assert inserted == sum(len(rows) for f in filtrations for rows in f.inserted)
    assert len(offered) == inserted + 25 == 229
    # at weight 10 half12 has 506 monomials and an ideal of dimension 465: rank 41
    half12 = CaseRunner(CAT, CAT.cases["half12"], presentation=True)
    assert reports[-1].details["ideal_dims"][-1] == 465
    assert paths[-1][0] == len(weighted_monomials(half12.weights2, 20)) - 465 == 41


def test_every_row_span_rank_builds_is_its_monomial_reduced(monkeypatch):
    """Every packed row a shipped span or kernel check offers its filtration
    at doubled weight k2, one product of x_i g^-e and the row of m / x_i, is
    the monomial m divided by g^j, j = k2 // w: times the reduced row of g^j
    it equals the reduction of the first W coefficients of the monomial's
    exact q-expansion at the check's precision, W the plan's rank width
    below that precision; 481 rows in all, each offered to a basis of width W."""
    offered = _count_offered(monkeypatch)
    rows = 0
    for check, label in product(("span", "kernel"), sorted(CAT.cases)):
        plan = check_plan(CAT, check, label)
        if plan.skip:
            continue
        prec, width = plan.prec, plan.width
        runner = _runner(label, prec, width, presentation=check == "kernel")
        assert width < prec
        red = modp.reduction(runner.evaluator.ctx, width)
        filt, dims = runner.filtration, dict(zip(plan.weights2, plan.dims))
        unit = tuple(int(i == filt.unit) for i in range(len(runner.gens)))
        for j2 in range(plan.k_range[1] + 1):
            offered.clear()
            filt.rank(j2)
            entries = _candidates(filt, j2)  # the same candidates: they read only the weights below
            assert [m for m, _, _ in entries] == sorted(m for m, _, _ in entries)
            assert len(offered) == len(entries)
            g_j = red.series(runner.monomial_series(tuple(e * (j2 // filt.step) for e in unit),
                                                    prec))
            for (m, _, _), (basis, row, _) in zip(entries, offered):
                assert basis.red is red and row.bit_length() <= 64 * width
                assert red.mul(row, g_j) == red.series(
                    runner.monomial_series(_full(filt, m), prec)), (label, m)
            rows += len(offered)
            if j2 in dims:
                assert runner.span_rank(j2, dims[j2]) == dims[j2]
    assert rows == 481


def test_each_offered_row_takes_one_product(monkeypatch):
    """On the shipped span and kernel checks each row a filtration offers,
    but the row of 1, is one product of two rows already built, at the rank
    width of its check's plan: 452 products for 481 rows, where building
    every row from the generators' rows took 1,690 products.  The 29
    filtrations reduce each generator series once and take 96 products
    more in setup: for each generator x_i other than the unit g, w_i // w
    products build x_i g^-e for e = w_i // w, and one more builds the
    factor for e + 1 where w does not divide w_i."""
    products = []
    mul = modp.Reduction.mul

    def multiplied(red, a, b):
        products.append(red.n)
        return mul(red, a, b)

    monkeypatch.setattr(modp.Reduction, "mul", multiplied)
    setup = []
    init = verify.Filtration.__init__

    def recorded(filtration, red, rows, weights2):
        before = len(products)
        init(filtration, red, rows, weights2)
        setup.append(len(products) - before)
        assert setup[-1] == sum(w2 // filtration.step + bool(w2 % filtration.step)
                                for w2 in filtration.weights2)

    monkeypatch.setattr(verify.Filtration, "__init__", recorded)
    series = _count_reduced_series(monkeypatch)
    offered = _count_offered(monkeypatch)
    reports = full_report(CAT, checks={"span", "kernel"})
    assert {r.status for r in reports} == {"pass"}
    assert len(setup) == 29 and sum(setup) == 96
    # one row of 1 per filtration, at weight 0, and one product for each other row
    assert len(offered) == 481 and len(products) - sum(setup) == len(offered) - 29 == 452
    assert len(series) == sum(len(CAT.case_gens(CAT.cases[r.case], r.check == "kernel"))
                              for r in reports)
    planned = {check_plan(CAT, check, label).width
               for check, label in scheduled_checks(CAT, checks={"span", "kernel"})}
    assert set(products) == planned


_RANKED = [(check, label) for check, label in product(("span", "kernel"), sorted(CAT.cases))
           if not check_plan(CAT, check, label).skip]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_RANKED), st.integers(1, 24), st.integers(0, 40))
def test_ranks_at_the_rank_width_give_the_reports_of_ranks_at_the_precision(ranked, kmax2,
                                                                            extra):
    """A span or kernel report with its ranks mod p at the plan's rank width
    equals the report with them at the full precision; and runners at up to
    40 coefficients past the plan's precision rank as the plan's runner
    does, at the plan's width or at their own precision: the width does not
    grow with the precision."""
    check, label = ranked
    run = verify_span if check == "span" else verify_kernel
    plan = check_plan(CAT, check, label, kmax2)
    assert plan.width <= plan.prec

    def report():
        out = json.loads(run(CAT, label, kmax2).to_json())
        del out["elapsed_ms"]
        return out

    narrow = report()
    planned = verify.check_plan
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "check_plan",
                   lambda *args: (wide := planned(*args))._replace(width=wide.prec))
        assert report() == narrow
    assert narrow["precision"] == plan.prec

    def ranks(prec: int, width: int) -> list[int]:
        runner = _runner(label, prec, width, presentation=check == "kernel")
        return [runner.span_rank(j2, dim) for j2, dim in zip(plan.weights2, plan.dims)]

    prec = plan.prec + extra
    assert ranks(prec, plan.width) == ranks(prec, prec) == ranks(plan.prec, plan.width)


def test_a_width_two_check_ranks_under_the_prime_below_two_to_the_31(monkeypatch):
    """The span of case 1 to doubled weight 8 ranks at width 2, the one width
    with the largest ceiling, 2^31; it passes with the rank mod p of its one
    filtration equal to dim at every weight, and each rank equals exact
    elimination at the full precision."""
    plan = check_plan(CAT, "span", "1", 8)
    prec = plan.prec
    assert plan.width == 2 < prec
    runner = CaseRunner(CAT, CAT.cases["1"])
    p = modp.reduction(runner.evaluator.ctx, 2).p
    assert modp.prime_ceiling(2) == 1 << 31 and 1 << 30 < p < 1 << 31
    paths = _count_rank_paths(monkeypatch)
    built = _count_filtrations(monkeypatch)
    report = verify_span(CAT, "1", kmax2=8)
    assert report.status == "pass" and report.precision == prec
    assert [f.red.p for f in built] == [p]
    assert [(rank_mod_p == bound, n) for bound, rank_mod_p, n in paths] == \
        [(True, 0)] * len(plan.weights2)
    assert report.details["ranks"] == report.details["dims"] == [
        row_echelon_rank(runner.monomial_series(e, prec)
                         for e in weighted_monomials(runner.weights2, j2))
        for j2 in plan.weights2]


def test_a_relation_divided_by_the_old_prime_gives_the_golden_report(monkeypatch):
    """A relation coefficient whose denominator is the prime of the span ranks,
    which a basis mod that prime could not reduce: the exact basis takes it as
    it is, with no exact elimination, and the report is the golden one."""
    plan = check_plan(CAT, "kernel", "7")
    runner = CaseRunner(CAT, CAT.cases["7"], presentation=True)
    # the span ranks' prime
    p = modp.reduction(runner.evaluator.ctx, plan.width).p
    raw = _shipped()
    rel = next(c for c in raw["cases"] if c["label"] == "7")["presentation"]["relations"][0]
    rel["poly"] = f"({rel['poly']})/{p}"
    exact = _count_exact_ranks(monkeypatch)
    built = _count_bases(monkeypatch)
    report = json.loads(verify_kernel(Catalog(raw), "7").to_json())
    assert exact == [] and len(built) == 1
    del report["elapsed_ms"]
    assert report == json.loads(GOLDEN.read_text())["7|kernel"]


def test_full_report_builds_one_border_per_span_or_kernel_weight(monkeypatch):
    """Each span or kernel check takes the candidates of every weight from 0
    to its top once, in its filtration, whether the check reports that
    weight or not; a kernel check counts its standard monomials from the
    Hilbert series of its leading monomials, and builds no border of its own."""
    border = groebner.border
    calls = []

    def counted(weights2, lower, k2):
        calls.append(k2)
        return border(weights2, lower, k2)

    monkeypatch.setattr(groebner, "border", counted)
    reports = full_report(CAT)
    ranked = [r for r in reports if r.check in ("span", "kernel") and r.status == "pass"]
    assert calls == [j2 for r in ranked for j2 in range(r.k_range[1] + 1)]
    assert len(calls) == 469 > sum(len(r.details["weights2"]) for r in ranked) == 249


def test_full_report_builds_each_constructor_series_once(monkeypatch):
    """With one series cache per conductor, no constructor runs twice with
    the same arguments, field and precision over the whole batch."""
    calls = []
    for fname in ("eisenstein_e", "eisenstein_c", "eis_f", "eis_g", "eis_g2",
                  "theta_series", "theta_bqf"):
        def counted(*args, _f=getattr(exprs, fname), _name=fname):
            *params, prec, ctx = args
            calls.append((_name, repr(params), ctx.L, prec))
            return _f(*args)
        monkeypatch.setattr(exprs, fname, counted)
    full_report(Catalog(_shipped()))
    assert calls
    repeated = {key for key in calls if calls.count(key) > 1}
    assert not repeated, sorted(repeated)


def test_full_report_evaluates_each_relation_once(monkeypatch):
    """The relation and kernel checks of a case share each relation series
    through the conductor's series cache: over full_report, one evaluation
    per distinct (case, relation, precision)."""
    calls = []
    eval_poly = CaseRunner.eval_poly

    def counted(runner, terms, prec):
        calls.append((runner.case.label, id(terms), prec))
        return eval_poly(runner, terms, prec)

    monkeypatch.setattr(CaseRunner, "eval_poly", counted)
    full_report(Catalog(_shipped()))
    assert len(calls) == len(set(calls)) == 38


def test_full_report_deterministic_order():
    sel = dict(checks={"identity", "hilbert"}, cases=["c3_sq", "7", "14h9", "theta_quad"])
    a = full_report(CAT, **sel)
    b = full_report(CAT, **sel)
    strip = lambda rs: [(r.case, r.check, r.status, r.k_range, r.precision, r.details)
                        for r in rs]
    assert strip(a) == strip(b)
    assert [(r.case, r.check) for r in a] == sorted((r.case, r.check) for r in a)


def test_a_report_stays_mutable_and_slotted():
    report = verify_identity(CAT, "theta_quad")
    report.details = dict(report.details, note="x")
    report.elapsed_ms += 1000
    assert json.loads(report.to_json())["details"]["note"] == "x"
    with pytest.raises(AttributeError):
        report.extra = 1

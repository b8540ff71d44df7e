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
    """Record (bound, width, ranks mod p, exact eliminations, rows read mod p)
    for every certified rank from now on."""
    paths, mod_p, read = [], [], []
    exact = _count_exact_ranks(monkeypatch)
    rank_mod_p, certified = modp.Reduction.rank, verify.certified_rank

    def counted(red, rows, bound):
        mod_p.append(red.p)

        def tally():
            for row in rows:
                read.append(row)
                yield row
        return rank_mod_p(red, tally(), bound)

    def recorded(ctx, bound, width, reduced_rows, exact_rows):
        before = len(mod_p), len(exact), len(read)
        out = certified(ctx, bound, width, reduced_rows, exact_rows)
        paths.append((bound, width, len(mod_p) - before[0], len(exact) - before[1],
                      len(read) - before[2]))
        return out

    monkeypatch.setattr(modp.Reduction, "rank", counted)
    monkeypatch.setattr(verify, "certified_rank", recorded)
    return paths


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
    # its one rank mod p on the border, and nothing is eliminated exactly
    weights2 = report.details["weights2"]
    assert weights2 == [2, 4, 6, 8]
    assert len(built) == 1
    assert [path[2:4] for path in paths] == [(1, 0)] * len(weights2)
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
    """Only the doctored weight falls back to exact elimination; the border above
    it is built from every monomial of that weight, and the weights above are
    proved mod p again."""
    cat = _dim_one_too_high(_shipped(), "12", 4, only=True)
    paths = _count_rank_paths(monkeypatch)
    span = verify_span(cat, "12")
    weights2, prec = span.details["weights2"], span.precision
    width = check_plan(cat, "span", "12").width
    assert {path[1] for path in paths} == {width}
    assert span.status == "fail"
    assert span.details["first_failure"] == {"j2": 4, "rank": 9, "dim": 10}
    assert [d for j2, d, r in zip(weights2, span.details["dims"], span.details["ranks"])
            if d != r] == [10]
    assert [path[2:4] for path in paths] == [(1, 1) if j2 == 4 else (1, 0) for j2 in weights2]
    runner = CaseRunner(cat, cat.cases["12"], prec=prec, width=width)
    assert span.details["ranks"] == [
        row_echelon_rank(runner.monomial_series(e, prec)
                         for e in weighted_monomials(runner.weights2, j2))
        for j2 in weights2]
    for j2, dim in zip(weights2, span.details["dims"]):
        runner.span_rank(j2, dim)
    assert _monomials(runner.border(6)) == sorted(weighted_monomials(runner.weights2, 6))
    assert len(runner.border(8)) < len(weighted_monomials(runner.weights2, 8))


def _monomials(entries) -> list[tuple[int, ...]]:
    """The monomials of a border, without their factors."""
    return [m for m, _, _ in entries]


def _divided(m: tuple[int, ...]):
    """(i, m / x_i) for each variable x_i that divides the monomial m."""
    return [(i, m[:i] + (e - 1,) + m[i + 1:]) for i, e in enumerate(m) if e]


@pytest.mark.parametrize("label, kmax2", [("3", 24), ("11h3", 16), ("12", 12), ("13h3", 8),
                                          ("25h6", 10), ("half12", 12)])
def test_ladder_rows_are_distinct_monomials_from_the_bases_below(label, kmax2):
    """The border at each weight is part of the ladder, the rows g_i * b for
    b in the basis proved one generator weight down: its rows are distinct
    monomials of that weight, no more than the bases below hold, their rank
    reaches dim, and the pivots lie among them and are closed under
    division: a pivot over a generator it contains is a pivot one generator
    weight down."""
    plan = check_plan(CAT, "span", label, kmax2)
    runner = _runner(label, plan.prec, plan.width)
    dims = dict(zip(plan.weights2, plan.dims))
    for j2, dim in dims.items():
        rows = _monomials(runner.border(j2))
        assert len(set(rows)) == len(rows)
        assert set(rows) <= set(weighted_monomials(runner.weights2, j2))
        lower = [j2 - w2 for w2 in runner.weights2 if w2 <= j2]
        if j2 and all(j in dims for j in lower):  # every weight below was proved
            bases = {w2: set(runner._bases[j2 - w2])
                     for w2 in runner.weights2 if w2 <= j2}
            ladder = {b[:i] + (b[i] + 1,) + b[i + 1:]
                      for i, w2 in enumerate(runner.weights2) if w2 <= j2 for b in bases[w2]}
            assert len(ladder) <= sum(dims[j] for j in lower)
            assert set(rows) == {m for m in ladder if all(
                b in bases[runner.weights2[i]] for i, b in _divided(m))}
        assert runner.span_rank(j2, dim) == dim
        pivots = runner._bases[j2]
        assert _monomials(runner.border(j2)) == rows
        assert len(pivots) == dim and set(pivots) <= set(rows)
        for m in pivots:
            for i, b in _divided(m):
                assert b in runner._bases[j2 - runner.weights2[i]], (j2, m)


@pytest.mark.parametrize("label", ["25h6", "half12", "16h9", "13h3"])
def test_each_border_rank_is_the_rank_mod_p_of_every_monomial(label):
    """To doubled weight 32, each span rank read off the border equals the
    rank under the same reduction of every monomial of its weight: the
    border's pivots are the rows that raise the rank when every monomial is
    ranked in ascending lexicographic order, so the border misses none."""
    report = verify_span(CAT, label, kmax2=32)
    assert report.status == "pass"
    width = check_plan(CAT, "span", label, 32).width
    runner = _runner(label, report.precision, width)
    red = modp.reduction(runner.evaluator.ctx, width)
    for j2, dim in zip(report.details["weights2"], report.details["dims"]):
        assert runner.span_rank(j2, dim) == dim
        mons = sorted(weighted_monomials(runner.weights2, j2))
        every = red.rank([runner.reduced_monomial(e) for e in mons], len(mons))
        assert [mons[j] for j in every] == runner._bases[j2], j2


def test_the_25h6_span_to_weight_16_ranks_only_ladder_rows(monkeypatch):
    """A count, not a timing: the span of 25h6 to weight 16 passes with one
    rank mod p per weight on its border, a part of the ladder of g_i times
    the basis below, and the rows read number at most sum_k dim M_k + 20,
    where ranking the ladder itself read 2,317."""
    paths = _count_rank_paths(monkeypatch)
    report = verify_span(CAT, "25h6", kmax2=32)
    assert report.status == "pass"
    assert [path[2:4] for path in paths] == [(1, 0)] * len(report.details["weights2"])
    assert sum(path[4] for path in paths) <= sum(report.details["dims"]) + 20


def test_a_denominator_divisible_by_the_prime_falls_back_to_exact_elimination(monkeypatch):
    ctx = cyclo_context(4)
    red = modp.reduction(ctx, 3)
    z = ctx.zeta_power(1)
    x = ctx.from_rational(Fraction(1, red.p)) + z
    rows = [series_of(ctx, row) for row in
            [[x, ctx.one, z], [ctx.one, ctx.zero, ctx.one], [x + ctx.one, ctx.one, z + ctx.one]]]
    with pytest.raises(ZeroDivisionError):
        red.series(x)
    exact = _count_exact_ranks(monkeypatch)
    reduce = lambda red: [red.series(row) for row in rows]  # noqa: E731
    got, pivots = certified_rank(ctx, 2, 3, reduce, lambda: rows)
    assert got == 2 == row_echelon_rank(rows)
    assert pivots is None
    assert exact == [rows]


def test_an_unreached_bound_falls_back_to_the_exact_rank(monkeypatch):
    ctx = cyclo_context(3)
    z = ctx.zeta_power(1)
    rows = [series_of(ctx, [ctx.one, z]), series_of(ctx, [z, z * z])]  # rank 1
    exact = _count_exact_ranks(monkeypatch)
    reduce = lambda red: [red.series(row) for row in rows]  # noqa: E731
    assert certified_rank(ctx, 1, 2, reduce, lambda: rows) == (1, [0])
    assert exact == []
    assert certified_rank(ctx, 2, 2, reduce, lambda: rows) == (1, None)
    assert exact == [rows]
    assert certified_rank(ctx, 0, 0, lambda red: [], lambda: []) == (0, [])
    # no prime p = 1 (mod 3) lies below the ceiling of this width, 2
    assert modp.reduction(ctx, 1 << 60) is None
    no_rows = lambda red: pytest.fail("no reduction fits")  # noqa: E731
    assert certified_rank(ctx, 1, 1 << 60, no_rows, lambda: rows) == (1, None)
    assert exact == [rows, rows]


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
    reduce = lambda red: [red.series(row) for row in rows]  # noqa: E731
    red = modp.reduction(ctx, ncols)
    assert len(red.rank(reduce(red), nrows)) <= rank
    for bound in {rank, rank + 1, min(nrows, ncols, inner)}:
        got, pivots = certified_rank(ctx, bound, ncols, reduce, lambda: rows)
        assert got == rank
        # pivot rows come back only from a rank mod p that reached the bound
        assert pivots is None or len(pivots) == bound == rank


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


def test_a_generator_of_the_wrong_level_fails_the_25h6_span_with_exact_ranks(
        tmp_path, capsys, monkeypatch):
    """beta25 replaced by (v 2 beta25), of level 50: at doubled weight 12 the
    rank mod p falls short of dim 31, and exact elimination finds rank 45, the
    precision, so it stops at its 45th pivot, long before the 462nd monomial."""
    exact = _count_exact_ranks(monkeypatch)
    code, report = _mutant_span(tmp_path, capsys, "25h6", 7, _swap("beta25", "(v 2 beta25)"))
    assert code == 1
    assert report == {
        "case": "25h6", "check": "span", "k_range": [0, 14], "precision": 45, "status": "fail",
        "details": {"weights2": [0, 2, 4, 6, 8, 10, 12, 14],
                    "ranks": [1, 6, 11, 16, 21, 26, 45, 36],
                    "dims": [1, 6, 11, 16, 21, 26, 31, 36],
                    "first_failure": {"j2": 12, "rank": 45, "dim": 31}}}
    assert len(exact) == 1
    assert 45 <= len(exact[0]) < len(weighted_monomials([2] * 6, 12)) == 462


def test_a_generator_of_the_wrong_level_fails_the_case_12_span_with_exact_ranks(
        tmp_path, capsys):
    code, report = _mutant_span(tmp_path, capsys, "12", 10, _swap("frho3v4", "(v 2 alpha12)"))
    assert code == 1
    assert report == {
        "case": "12", "check": "span", "k_range": [0, 20], "precision": 50, "status": "fail",
        "details": {"weights2": [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20],
                    "ranks": [1, 5, 9, 13, 17, 21, 25, 29, 33, 41, 40],
                    "dims": [1, 5, 9, 13, 17, 21, 25, 29, 33, 37, 41],
                    "first_failure": {"j2": 18, "rank": 41, "dim": 37}}}


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
    to doubled weight 20, is decided by exactly one rank mod p, with no exact
    elimination.  Each of full_report's 249 span and kernel ranks runs at its
    plan's rank width, below the check's precision: 3,500 residues a row in
    all, where the precisions would give 5,492."""
    paths = _count_rank_paths(monkeypatch)
    full_report(CAT)
    in_full_report = len(paths)
    widths, precs = [], []
    for check, label in scheduled_checks(CAT):  # the order full_report runs them in
        if check in ("span", "kernel"):
            plan = check_plan(CAT, check, label)
            assert plan.width < plan.prec, (check, label)
            widths += [plan.width] * len(plan.weights2)
            precs += [plan.prec] * len(plan.weights2)
    assert [path[1] for path in paths] == widths
    assert len(widths) == 249 and sum(widths) == 3500 and sum(precs) == 5492
    for label in ("9", "half12"):
        assert verify_kernel(CAT, label, kmax2=20).status == "pass"
    assert 0 < in_full_report < len(paths)
    assert {path[2:4] for path in paths} == {(1, 0)}


def test_kernel_checks_read_the_border_up_to_its_last_pivot(monkeypatch):
    """Every kernel check of full_report, and the kernels of 9 and half12 to
    doubled weight 20: one exact Gröbner basis per check gives every ideal
    dimension, with no exact elimination, and each span rank
    reads its border up to its last pivot, that is dim rows and the border
    rows before the last pivot that are not pivots (a row count, not a
    timing)."""
    paths = _count_rank_paths(monkeypatch)
    exact = _count_exact_ranks(monkeypatch)
    built = _count_bases(monkeypatch)
    borders = []
    span_rank = CaseRunner.span_rank

    def recorded(runner, k2, dim):
        rank = span_rank(runner, k2, dim)
        borders.append((_monomials(runner.border(k2)), runner._bases[k2]))
        return rank

    monkeypatch.setattr(CaseRunner, "span_rank", recorded)
    reports = full_report(CAT, checks={"kernel"})
    reports += [verify_kernel(CAT, label, kmax2=20) for label in ("9", "half12")]
    assert len(reports) == 10 and {r.status for r in reports} == {"pass"}
    assert exact == [] and len(built) == len(reports)
    weights = [j2 for r in reports for j2 in r.details["weights2"]]
    assert len(paths) == len(borders) == len(weights) == 88
    assert all(path[2:4] == (1, 0) for path in paths), paths
    for (dim, *_, read), (rows, pivots) in zip(paths, borders):
        assert len(pivots) == dim and set(pivots) <= set(rows)
        assert read == (rows.index(pivots[-1]) + 1 if pivots else 0) <= dim + 3
    dims = sum(path[0] for path in paths)
    assert sum(path[4] for path in paths) <= dims + 20
    # at weight 10 half12 has 506 monomials and an ideal of dimension 465: 41 rows
    half12 = CaseRunner(CAT, CAT.cases["half12"], presentation=True)
    assert reports[-1].details["ideal_dims"][-1] == 465
    assert paths[-1][0] == len(weighted_monomials(half12.weights2, 20)) - 465 == 41


def test_every_row_span_rank_builds_is_its_monomial_reduced(monkeypatch):
    """Every packed row a shipped span or kernel check reads mod p, built as
    one product of its first generator's row and its cofactor's, equals the
    reduction of the first W coefficients of the monomial's exact
    q-expansion at the check's precision, W the plan's rank width below that
    precision; 1,808 rows in all, each ranked under the reduction of W."""
    read, widths = [], []
    rank = modp.Reduction.rank

    def recorded(red, rows, bound):
        widths.append(red.n)

        def tally():
            for row in rows:
                read.append(row)
                yield row
        return rank(red, tally(), bound)

    monkeypatch.setattr(modp.Reduction, "rank", recorded)
    rows = 0
    for check, label in product(("span", "kernel"), sorted(CAT.cases)):
        plan = check_plan(CAT, check, label)
        if plan.skip:
            continue
        prec, width = plan.prec, plan.width
        runner = _runner(label, prec, width, presentation=check == "kernel")
        assert width < prec
        red = modp.reduction(runner.evaluator.ctx, width)
        for j2, dim in zip(plan.weights2, plan.dims):
            read.clear()
            widths.clear()
            assert runner.span_rank(j2, dim) == dim
            assert widths == [width]
            entries = runner.border(j2)  # the same border: it reads only the weights below
            assert len(read) <= len(entries)
            for (m, _, _), row in zip(entries, read):
                assert row.bit_length() <= 64 * width
                assert row == red.series(runner.monomial_series(m, prec)), (runner.case.label, m)
            rows += len(read)
    assert rows == 1808


def test_reduced_monomial_builds_only_the_rows_of_one_and_the_generators(monkeypatch):
    """On the shipped span and kernel checks every other row comes from one
    product of two rows already built, so ``reduced_monomial`` is called 118
    times, each for 1 or a generator, where the recursion built each row's
    cofactor again (5,188 calls); the rows of 1 and of the generators take no
    product, so the 1,808 rows read take 1,690 products, each at the rank
    width of its check's plan."""
    calls, products = [], []
    reduced_monomial, mul = CaseRunner.reduced_monomial, modp.Reduction.mul

    def counted(runner, exps):
        calls.append(exps)
        return reduced_monomial(runner, exps)

    def multiplied(red, a, b):
        products.append(red.n)
        return mul(red, a, b)

    monkeypatch.setattr(CaseRunner, "reduced_monomial", counted)
    monkeypatch.setattr(modp.Reduction, "mul", multiplied)
    reports = full_report(CAT, checks={"span", "kernel"})
    assert {r.status for r in reports} == {"pass"}
    assert len(calls) == 118
    assert all(sum(exps) <= 1 for exps in calls)
    assert len(products) == 1690
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
    with the largest ceiling, 2^31; it passes with one rank mod p per weight,
    and each rank equals exact elimination at the full precision."""
    plan = check_plan(CAT, "span", "1", 8)
    prec = plan.prec
    assert plan.width == 2 < prec
    runner = CaseRunner(CAT, CAT.cases["1"])
    p = modp.reduction(runner.evaluator.ctx, 2).p
    assert modp.prime_ceiling(2) == 1 << 31 and 1 << 30 < p < 1 << 31
    paths = _count_rank_paths(monkeypatch)
    report = verify_span(CAT, "1", kmax2=8)
    assert report.status == "pass" and report.precision == prec
    assert [path[1:4] for path in paths] == [(2, 1, 0)] * len(plan.weights2)
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
    """A kernel check counts its standard monomials from the Hilbert series
    of its leading monomials, and builds no border of its own."""
    border = groebner.border
    calls = []

    def counted(weights2, lower, k2):
        calls.append(k2)
        return border(weights2, lower, k2)

    monkeypatch.setattr(groebner, "border", counted)
    reports = full_report(CAT)
    weights = [j2 for r in reports if r.check in ("span", "kernel")
               for j2 in r.details.get("weights2", [])]
    assert len(calls) == len(weights) == 249


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

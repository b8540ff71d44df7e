import json
from fractions import Fraction

import pytest

from mfring.catalog import Catalog, Relation, load_catalog
from mfring.errors import PrecisionTooLow, UnknownIdentity
from mfring.verify import (
    GUARD,
    CaseRunner,
    check_plan,
    full_report,
    row_echelon_rank,
    verify_hilbert,
    verify_identity,
    verify_integrality,
    verify_kernel,
    verify_relations,
    verify_span,
    weighted_monomials,
)

CAT = load_catalog()


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


def test_span_rank_examples():
    five = CaseRunner(CAT, CAT.cases["5"])
    prec = five.sturm2(6) + GUARD
    assert five.span_rank(6, prec) == 4  # weight 3 at level 5
    assert five.span_rank(0, 4) == 1
    one = CaseRunner(CAT, CAT.cases["1"])
    assert one.span_rank(24, one.sturm2(24) + GUARD) == 2
    with pytest.raises(PrecisionTooLow):
        five.span_rank(12, 3)


def test_rank_nullity_against_explicit_nullspace():
    runner = CaseRunner(CAT, CAT.cases["9"], presentation=True)
    j2 = 8  # weight 4
    prec = runner.sturm2(j2) + GUARD
    mons = weighted_monomials(runner.weights2, j2)
    rows = [runner.monomial_series(e, prec).coeffs for e in mons]
    rank = row_echelon_rank(rows)
    kernel = _left_nullspace(rows, runner.evaluator.ctx)
    assert len(mons) - rank == len(kernel)
    assert rank == runner.dim2(j2)
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
    assert row_echelon_rank([r.coeffs for r in rows]) == row_echelon_rank(
        [r.coeffs for r in scaled]
    )


def test_rank_stabilizes_at_sturm_precision():
    runner = CaseRunner(CAT, CAT.cases["7"])
    bound = runner.sturm2(12)
    assert runner.span_rank(12, bound) == runner.span_rank(12, bound + GUARD)


def test_relation_series_examples():
    runner = CaseRunner(CAT, CAT.cases["7"], presentation=True)
    o7 = CAT.cases["7"].presentation.relations[0]
    assert runner.relation_series(o7, 24).is_zero()
    # a single-variable polynomial evaluates to the form itself
    single = Relation("probe", 2, "fchi7")
    assert runner.relation_series(single, 8) == runner.evaluator.series("f[1;chi7]", 8)


def test_verify_span_reports():
    report = verify_span(CAT, "7", kmax2=10)
    assert report.passed
    assert report.details["ranks"] == [1, 3, 5, 7, 9, 11]
    assert report.details["dims"] == [1, 3, 5, 7, 9, 11]
    report = verify_span(CAT, "11h3", kmax2=12)
    assert report.details["ranks"] == [1, 1, 2, 3, 4, 5, 6]
    report = verify_span(CAT, "13h3", kmax2=8)
    assert report.details["dims"] == [1, 2, 3, 8, 9]
    assert report.passed


def test_verify_span_reports_precision_used():
    runner = CaseRunner(CAT, CAT.cases["9"])
    default = verify_span(CAT, "9")
    assert default.precision == runner.sturm2(default.k_range[1]) + GUARD
    # an override above every weight's cutoff is the precision of every rank
    raised = verify_span(CAT, "9", prec_override=default.precision + 12)
    assert raised.precision == default.precision + 12
    assert raised.details["ranks"] == default.details["ranks"]


def test_verify_kernel_examples():
    report = verify_kernel(CAT, "11h3", kmax2=12)
    assert report.passed
    assert report.details["weights2"][-1] == 12
    assert report.details["kernel_dims"][-1] == 1
    assert report.details["ideal_dims"][-1] == 1
    report = verify_kernel(CAT, "7", kmax2=4)
    assert report.passed
    assert report.details["kernel_dims"] == [0, 1]  # weight 2: 6 monomials - dim 5
    nine = verify_kernel(CAT, "9", kmax2=6)
    assert nine.passed
    assert nine.details["weights2"] == [2, 4, 6]
    assert nine.details["kernel_dims"][-1] == 10
    assert nine.details["ideal_dims"][-1] == 10
    # the twelve degree-3 multiples of the three relations have rank 10
    runner = CaseRunner(CAT, CAT.cases["9"], presentation=True)
    count = sum(len(weighted_monomials(runner.weights2, 6 - r.w2))
                for r in CAT.cases["9"].presentation.relations)
    assert count == 12


def test_verify_kernel_fails_on_a_nonvanishing_relation():
    from importlib import resources

    raw = json.loads(resources.files("mfring").joinpath("data/catalog.json").read_text())
    seven = next(c for c in raw["cases"] if c["label"] == "7")
    # doctored: homogeneous of weight 2 but equal to 2*frho7^2, not zero
    seven["presentation"]["relations"][0]["poly"] = "frho7^2 + fchi7*fchi7_bar"
    report = verify_kernel(Catalog(raw), "7", kmax2=4)
    assert report.status == "fail"
    assert report.details["first_failure"] == {"relation_nonzero": "O7"}


def test_verify_relations_states():
    assert verify_relations(CAT, "7").passed
    unknown = verify_relations(CAT, "13h3")
    assert unknown.status == "skipped"
    assert "unknown" in unknown.details["reason"]
    free = verify_relations(CAT, "5")
    assert free.status == "skipped"
    base_ext = verify_kernel(CAT, "16full")
    assert base_ext.status == "skipped"
    assert "base" in base_ext.details["reason"]


def test_verify_identity_and_errors():
    assert verify_identity(CAT, "c4_sq").passed
    with pytest.raises(UnknownIdentity):
        verify_identity(CAT, "nope")


def test_verify_integrality_negative_control():
    assert verify_integrality(CAT, "alpha1").passed
    bad = verify_integrality(CAT, "f[1;chi5]", prec=20)
    assert bad.status == "fail"
    assert bad.details["first_failure"]["index"] == 0


def test_report_json_schema():
    report = verify_hilbert(CAT, "14h9")
    data = json.loads(report.to_json())
    assert set(data) == {"case", "check", "k_range", "precision", "status",
                         "details", "elapsed_ms"}
    assert data["status"] == "pass"


def test_full_batch_all_green():
    """The default batch over the whole catalog: no failures, only the
    documented skip for the case whose relation ideal is unknown."""
    reports = full_report(CAT)
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


def test_full_report_deterministic_order():
    sel = dict(checks={"identity", "hilbert"}, cases=["c3_sq", "7", "14h9", "theta_quad"])
    a = full_report(CAT, **sel)
    b = full_report(CAT, **sel)
    strip = lambda rs: [(r.case, r.check, r.status, r.k_range, r.precision, r.details)
                        for r in rs]
    assert strip(a) == strip(b)
    assert [(r.case, r.check) for r in a] == sorted((r.case, r.check) for r in a)

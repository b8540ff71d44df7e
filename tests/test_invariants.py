"""Cross-module consistency checks tied to specific structural claims."""

import random

from mfring.catalog import Catalog, load_catalog
from mfring.characters import named_character
from mfring.constructors import eis_f
from mfring.cyclo import cyclo_context
from mfring.verify import (
    GUARD,
    CaseRunner,
    dim_or_none,
    full_report,
    row_echelon_rank,
    weighted_monomials,
)

from _series import series_of

CAT = load_catalog()


def test_conjugate_series_equals_series_of_conjugate_character():
    c4 = cyclo_context(4)
    chi5 = named_character("chi5")
    assert eis_f(1, chi5, 15, c4).conj() == eis_f(1, chi5.conj(), 15, c4)
    c6 = cyclo_context(6)
    chi9 = named_character("chi9")
    assert eis_f(1, chi9, 15, c6).conj() == eis_f(1, chi9.conj(), 15, c6)


def test_ideal_closure_spot_check():
    # a vanishing relation stays vanishing under random monomial multiples
    rng = random.Random(31337)
    runner = CaseRunner(CAT, CAT.cases["7"], presentation=True)
    rel = CAT.cases["7"].presentation.relations[0]
    terms = runner.relation_terms(rel)
    for _ in range(5):
        mult_weight = 2 * rng.randint(1, 3)
        mult = rng.choice(weighted_monomials(runner.weights2, mult_weight))
        shifted = {tuple(a + b for a, b in zip(e, mult)): c for e, c in terms.items()}
        prec = runner.sturm2(rel.w2 + mult_weight) + GUARD
        assert runner.eval_poly(shifted, prec).is_zero()


def test_genpoly_homogeneity():
    runner = CaseRunner(CAT, CAT.cases["14h9"], presentation=True)
    rel = CAT.cases["14h9"].presentation.relations[0]
    terms = runner.relation_terms(rel)
    assert {sum(e * w for e, w in zip(exps, runner.weights2)) for exps in terms} == {rel.w2} == {8}


def test_theta_square_notes():
    """The square of the weight-1/2 series and its V2/V3/V4 companions."""
    ev = CAT.evaluator(2)
    prec = CAT.sturm2("g4", 2) + GUARD
    assert ev.series("(sub f[1;rho4] (pow theta 2))", prec).is_zero()
    prec = CAT.sturm2("g8", 2) + GUARD
    assert ev.series("(sub f[1;rho8] (mul theta (v 2 theta)))", prec).is_zero()


def test_half_integral_rank_matches_doubling_bound():
    """Rank at weight k+1/2 hits the bound [(d+1)/2] from squaring."""
    case = CAT.cases["half4"]
    for j2 in (1, 3, 5, 7, 9):  # doubled odd weights
        k = (j2 - 1) // 2
        bound = CAT.sturm2(case.group, j2)
        runner = CaseRunner(CAT, case, prec=bound + GUARD, width=max(bound, (k + 2) // 2))
        rank = runner.span_rank(j2, (k + 2) // 2)
        dim_int = CAT.dim2("g4", 2 * k) if k else 1
        # theta times a weight-k monomial basis spans everything
        assert rank == dim_int == (k + 2) // 2


def test_batch_aggregates_errors_instead_of_raising():
    raw = {
        "groups": [{"label": "g", "kind": "gamma0", "level": 2,
                    "dim": [{"mod": 4, "res": [0], "floor": [1, 8], "c": 1}]}],
        "forms": [],
        # lowering a series with zero q-coefficient raises at evaluation time
        "identities": [{"name": "broken", "group": "g", "L": 1, "w2": 1,
                        "expr": "(low 2 (v 2 theta))"}],
        "cases": [],
    }
    cat = Catalog(raw)
    reports = full_report(cat, checks={"identity"})
    assert len(reports) == 1
    assert reports[0].status == "fail"
    assert "BadLeadingShape" in reports[0].details["error"]


def test_rank_monotone_in_precision():
    # truncating columns can only lose independence, never gain it
    runner = CaseRunner(CAT, CAT.cases["9"])
    full_prec = runner.sturm2(8) + GUARD
    mons = weighted_monomials(runner.weights2, 8)
    rows = [runner.monomial_series(e, full_prec) for e in mons]
    ranks = [row_echelon_rank([r.truncate(p) for r in rows]) for p in range(2, full_prec + 1)]
    assert all(a <= b for a, b in zip(ranks, ranks[1:]))
    assert ranks[-1] == dim_or_none(CAT, runner.case, 8)


def test_monomial_rank_matrix_transpose_consistency():
    # span rank is unchanged if redundant all-zero columns are appended
    runner = CaseRunner(CAT, CAT.cases["6"])
    prec = runner.sturm2(6) + GUARD
    mons = weighted_monomials(runner.weights2, 6)
    rows = [runner.monomial_series(e, prec) for e in mons]
    zero = runner.evaluator.ctx.zero
    padded = [series_of(r.ctx, r.coeffs + (zero, zero)) for r in rows]
    assert row_echelon_rank(rows) == row_echelon_rank(padded)

"""The truncated exact Gröbner basis against exact elimination of the ideal vectors."""

import json
from fractions import Fraction
from importlib import resources
from operator import add, le, mul

from hypothesis import given, settings
from hypothesis import strategies as st

from mfring import groebner
from mfring.catalog import Catalog, load_catalog
from mfring.cyclo import cyclo_context
from mfring.hilbert import HilbertSeries, monomial_quotient
from mfring.verify import (
    CaseRunner,
    check_plan,
    row_echelon_rank,
    verify_kernel,
    weighted_monomials,
)

from _series import series_of

CAT = load_catalog()


def _weight(e, weights2) -> int:
    return sum(map(mul, e, weights2))


def _enumerated_standard(weights2, leads, j2: int) -> list[tuple[int, ...]]:
    """The monomials of weight j2 that no leading monomial divides, by
    filtering every monomial of that weight, in ascending lexicographic order."""
    return sorted(m for m in weighted_monomials(weights2, j2)
                  if not any(all(map(le, a, m)) for a in leads))


def _ideal_vectors(rel_terms, weights2, mons, j2: int, zero) -> list:
    """Coefficient vectors, on the monomials mons of weight j2, of every
    relation times every monomial of the complementary weight, each as the
    series whose coefficient i is its entry on mons[i]: the rows whose exact
    rank is the ideal's dimension at j2."""
    index_of = {e: i for i, e in enumerate(mons)}
    vectors = []
    for w2, terms in rel_terms:
        if w2 > j2:
            continue
        for mult in weighted_monomials(weights2, j2 - w2):
            vec = [zero] * len(mons)
            for exps, coeff in terms.items():
                i = index_of[tuple(map(add, exps, mult))]
                vec[i] = vec[i] + coeff
            vectors.append(series_of(zero.ctx, vec))
    return vectors


def _elements(ctx):
    """Small nonzero elements of Q(zeta_L): a sum of one or two small ints or
    fractions times powers of zeta."""
    term = st.builds(lambda a, d, k: ctx.from_rational(Fraction(a, d)) * ctx.zeta_power(k),
                     st.integers(-3, 3), st.integers(1, 3), st.integers(0, ctx.L - 1))
    return st.lists(term, min_size=1, max_size=2).map(lambda ts: sum(ts, ctx.zero)).filter(bool)


_MAX_MONOMIALS = 40  # keeps the exact elimination of the reference small


@st.composite
def _ideals(draw):
    """(conductor, doubled weights, top doubled weight, homogeneous relations
    over Q(zeta_L) as dicts of CycloNums)."""
    ctx = cyclo_context(draw(st.sampled_from([1, 3, 4])))
    weights2 = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)))
    tops = [t for t in range(1, 10)
            if all(len(weighted_monomials(weights2, j)) <= _MAX_MONOMIALS for j in range(t + 1))]
    top2 = draw(st.sampled_from(tops))
    rels = []
    for _ in range(draw(st.integers(1, 4))):
        mons = weighted_monomials(weights2, draw(st.integers(1, top2)))
        if mons:
            terms = draw(st.lists(st.sampled_from(mons), min_size=1, max_size=4, unique=True))
            rels.append({e: draw(_elements(ctx)) for e in terms})
    return ctx, weights2, top2, rels


@settings(max_examples=150, deadline=None)
@given(_ideals())
def test_ideal_dims_from_the_basis_equal_the_exact_rank_of_the_ideal_vectors(ideal):
    ctx, weights2, top2, rels = ideal
    leads = groebner.leading_monomials(rels, weights2, top2)
    rel_terms = [(_weight(next(iter(r)), weights2), r) for r in rels]
    counts = HilbertSeries([(1, 0)], weights2).expand(top2)
    assert len(counts) == top2 + 1
    quotient = monomial_quotient(leads, weights2).expand(top2)
    standard = []
    for j2 in range(top2 + 1):
        mons = weighted_monomials(weights2, j2)
        assert counts[j2] == len(mons)
        standard.append(_enumerated_standard(weights2, leads, j2))
        assert quotient[j2] == len(standard[j2]), j2
        # the border of the standard monomials below holds every standard monomial
        entries = groebner.border(weights2, standard.__getitem__, j2)
        _assert_first_factors(weights2, standard.__getitem__, j2, entries)
        assert [m for m, _, _ in entries
                if not any(all(map(le, a, m)) for a in leads)] == standard[j2]
        # the border of every monomial below is every monomial
        every = lambda j: weighted_monomials(weights2, j)  # noqa: E731
        entries = groebner.border(weights2, every, j2)
        _assert_first_factors(weights2, every, j2, entries)
        assert [m for m, _, _ in entries] == sorted(mons)
        rows = _ideal_vectors(rel_terms, weights2, mons, j2, ctx.zero)
        assert len(mons) - len(standard[j2]) == row_echelon_rank(rows), j2
        # closed under division: a standard monomial divided by any x_i it contains
        # is standard at the lower weight
        for m in standard[j2]:
            for i, e in enumerate(m):
                if e:
                    lower = m[:i] + (e - 1,) + m[i + 1:]
                    assert lower in standard[j2 - weights2[i]]
    # no leading monomial divides another, and none lies above the top weight
    for i, a in enumerate(leads):
        assert _weight(a, weights2) <= top2
        assert not any(all(map(le, b, a)) for b in leads[:i] + leads[i + 1:])


def _assert_first_factors(weights2, lower, k2: int, entries) -> None:
    """Each (m, i, b) of the border at k2 factors m by its first variable:
    i is the first nonzero index of m and b = m / x_i lies in lower(k2 - w_i);
    at k2 = 0 the border is the monomial 1 alone, with no factor."""
    if k2 == 0:
        assert entries == [((0,) * len(weights2), None, None)]
        return
    for m, i, b in entries:
        assert i == next(j for j, e in enumerate(m) if e), (m, i)
        assert b == m[:i] + (m[i] - 1,) + m[i + 1:], (m, b)
        assert b in lower(k2 - weights2[i]), (m, b)


def test_each_border_monomial_comes_with_its_first_factor():
    """At every weight from 0 to the top of every span and kernel check at
    its shipped precision, each candidate (m, i, b) its filtration takes
    from the border has i the first nonzero index of m and b = m / x_i
    inserted one generator weight down."""
    checked = 0
    for check in ("span", "kernel"):
        for label in sorted(CAT.cases):
            plan = check_plan(CAT, check, label)
            if plan.skip:
                continue
            runner = CaseRunner(CAT, CAT.cases[label], check == "kernel", plan.prec, plan.width)
            filt = runner.filtration
            for j2 in range(plan.k_range[1] + 1):
                filt.rank(j2)
                entries = groebner.border(filt.weights2, filt.inserted.__getitem__, j2)
                _assert_first_factors(filt.weights2, filt.inserted.__getitem__, j2, entries)
                checked += 1
            for j2, dim in zip(plan.weights2, plan.dims):
                assert runner.span_rank(j2, dim) == dim
    assert checked == 469


def _kernel_leads(runner, top2: int):
    """The relations of the runner's case, as (doubled weight, terms), and the
    leading monomials of the basis a kernel check of it to top2 takes."""
    rel_terms = [(rel.w2, runner.relation_terms(rel))
                 for rel in runner.case.presentation.relations]
    return rel_terms, groebner.leading_monomials([t for _, t in rel_terms], runner.weights2, top2)


def test_counts_and_standard_monomials_of_every_kernel_case_equal_the_enumeration():
    """For every case with a kernel check, to doubled weight 24: the monomial
    counts from the Hilbert series of the polynomial ring are the numbers of
    monomials, the standard monomial counts from the Hilbert series of the
    leading monomials are the numbers of standard monomials, and at each
    weight of the check the rank mod p of its filtration is the number of
    standard monomials that enumerating and filtering every monomial gives:
    the ideal is the kernel, so the standard monomials are a basis of the
    image."""
    checked = []
    for label in sorted(CAT.cases):
        plan = check_plan(CAT, "kernel", label, 24)
        if plan.skip or not plan.weights2:
            continue
        runner = CaseRunner(CAT, CAT.cases[label], True, plan.prec, plan.width)
        _, leads = _kernel_leads(runner, 24)
        counts = HilbertSeries([(1, 0)], runner.weights2).expand(24)
        quotient = monomial_quotient(leads, runner.weights2).expand(24)
        for j2 in range(25):
            assert counts[j2] == len(weighted_monomials(runner.weights2, j2)), (label, j2)
            assert quotient[j2] == len(_enumerated_standard(runner.weights2, leads, j2))
        for j2, dim in zip(plan.weights2, plan.dims):
            assert runner.span_rank(j2, dim) == dim
            standard = _enumerated_standard(runner.weights2, leads, j2)
            assert runner.filtration.rank(j2) == len(standard) == dim, (label, j2)
        checked.append(label)
    assert len(checked) >= 8 and "half12" in checked


def test_the_inputs_are_not_changed():
    ctx = cyclo_context(3)
    z = ctx.zeta_power(1)
    rels = [{(2, 0): ctx.one, (0, 2): z * 6},
            {(1, 1): ctx.from_rational(Fraction(1, 3)), (0, 2): z + 1}]
    copies = [dict(r) for r in rels]
    assert groebner.leading_monomials(rels, (1, 1), 6) == [(2, 0), (1, 1), (0, 3)]
    assert rels == copies


def test_case_10_needs_a_fourth_leading_term():
    """Case 10's three quadric relations have a Gröbner basis with four
    leading monomials up to its kernel weight: their own leading monomials
    do not generate the leading-term ideal."""
    case = CAT.cases["10"]
    runner = CaseRunner(CAT, case, presentation=True)
    plan = check_plan(CAT, "kernel", "10")
    rel_terms, leads = _kernel_leads(runner, plan.weights2[-1])
    assert len(rel_terms) == 3 and len(leads) == 4
    own = {max(terms) for _, terms in rel_terms}
    assert own < set(leads)
    extra = (set(leads) - own).pop()
    assert _weight(extra, runner.weights2) == 6  # found at weight 3


def _without_relation(label: str, index: int) -> Catalog:
    """The shipped catalog with one relation of one case removed."""
    raw = json.loads(resources.files("mfring").joinpath("data/catalog.json").read_text())
    case = next(c for c in raw["cases"] if c["label"] == label)
    del case["presentation"]["relations"][index]
    return Catalog(raw)


def test_a_kernel_check_without_one_of_its_relations_fails_with_the_exact_ideal_dims():
    """Each shipped kernel case with one of its relations dropped, at its
    shipped weights: the check fails, and its ideal dimensions are the exact
    ranks of the ideal vectors of the relations left."""
    dropped = []
    for label in sorted(CAT.cases):
        if check_plan(CAT, "kernel", label).skip:
            continue
        for index in range(len(CAT.cases[label].presentation.relations)):
            cat = _without_relation(label, index)
            report = verify_kernel(cat, label)
            assert report.status == "fail", (label, index)
            runner = CaseRunner(cat, cat.cases[label], presentation=True)
            rel_terms = [(rel.w2, runner.relation_terms(rel))
                         for rel in cat.cases[label].presentation.relations]
            exact = [row_echelon_rank(_ideal_vectors(
                rel_terms, runner.weights2, weighted_monomials(runner.weights2, j2), j2,
                runner.evaluator.ctx.zero)) for j2 in report.details["weights2"]]
            assert report.details["ideal_dims"] == exact, (label, index)
            dropped.append(label)
    assert len(dropped) == 16 and dropped.count("half12") == 3


def test_half12_without_its_first_relation_fails_at_weight_three_halves():
    """To doubled weight 32 (``--kmax 16``), where exact elimination of the
    ideal vectors took minutes, the basis gives the failing report at once."""
    report = verify_kernel(_without_relation("half12", 0), "half12", kmax2=32)
    assert report.status == "fail"
    assert report.details["first_failure"] == {"j2": 3, "rank": 6, "dim": 6,
                                               "dim_kernel": 2, "dim_ideal": 1}
    assert report.details["weights2"] == list(range(1, 33))
    assert report.details["ideal_dims"][-1] == 1690

"""The truncated Gröbner basis mod p against plain elimination mod p."""

from operator import le, mul

from hypothesis import given, settings
from hypothesis import strategies as st

from mfring import groebner, modp
from mfring.catalog import load_catalog
from mfring.hilbert import HilbertSeries, monomial_quotient
from mfring.verify import (
    CaseRunner,
    _ideal_vectors,
    _leading_monomials,
    check_plan,
    weighted_monomials,
)

CAT = load_catalog()


def _weight(e, weights2) -> int:
    return sum(map(mul, e, weights2))


def _enumerated_standard(weights2, leads, j2: int) -> list[tuple[int, ...]]:
    """The monomials of weight j2 that no leading monomial divides, by
    filtering every monomial of that weight, in ascending lexicographic order."""
    return sorted(m for m in weighted_monomials(weights2, j2)
                  if not any(all(map(le, a, m)) for a in leads))


def _rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of integer rows by plain elimination on lists."""
    pivots = []
    for row in rows:
        row = [v % p for v in row]
        for col, prow in pivots:
            if row[col]:
                c = row[col]
                row = [(a - c * b) % p for a, b in zip(row, prow)]
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is not None:
            inv = pow(row[lead], -1, p)
            pivots.append((lead, [v * inv % p for v in row]))
    return len(pivots)


@st.composite
def _ideals(draw):
    """(p, doubled weights, top doubled weight, homogeneous relations mod p)."""
    p = draw(st.sampled_from([2, 7, 101, 65521]))
    weights2 = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)))
    top2 = draw(st.integers(1, 9))
    rels = []
    for _ in range(draw(st.integers(1, 4))):
        mons = weighted_monomials(weights2, draw(st.integers(1, top2)))
        if mons:
            terms = draw(st.lists(st.sampled_from(mons), min_size=1, max_size=4, unique=True))
            rels.append({e: draw(st.integers(1, p - 1)) for e in terms})
    return p, weights2, top2, rels


@settings(max_examples=150, deadline=None)
@given(_ideals())
def test_ideal_dims_from_the_basis_equal_the_rank_mod_p_of_the_ideal_vectors(ideal):
    p, weights2, top2, rels = ideal
    leads = groebner.leading_monomials(rels, weights2, top2, p)
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
        assert [m for m in groebner.border(weights2, standard.__getitem__, j2)
                if not any(all(map(le, a, m)) for a in leads)] == standard[j2]
        # the border of every monomial below is every monomial
        everything = groebner.border(weights2, lambda j: weighted_monomials(weights2, j), j2)
        assert everything == sorted(mons)
        rows = _ideal_vectors(rel_terms, weights2, mons, j2, 0)
        assert len(mons) - len(standard[j2]) == _rank_mod_p(rows, p), j2
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


def _kernel_leads(runner, top2: int, prec: int):
    """The leading monomials a kernel check of the runner's case takes, under
    the reduction of its span ranks at precision prec."""
    rel_terms = [(rel.w2, runner.relation_terms(rel))
                 for rel in runner.case.presentation.relations]
    red = modp.reduction(runner.evaluator.ctx, prec)
    return rel_terms, _leading_monomials(red, rel_terms, runner.weights2, top2)


def test_counts_and_standard_monomials_of_every_kernel_case_equal_the_enumeration():
    """For every case with a kernel check, to doubled weight 24: the monomial
    counts from the Hilbert series of the polynomial ring are the numbers of
    monomials, the standard monomial counts from the Hilbert series of the
    leading monomials are the numbers of standard monomials, and at each
    weight of the check the border rows of its span rank that no leading
    monomial divides are the standard monomials that enumerating and
    filtering every monomial gives, in the same order."""
    checked = []
    for label in sorted(CAT.cases):
        plan = check_plan(CAT, "kernel", label, 24)
        if plan.skip or not plan.weights2:
            continue
        runner = CaseRunner(CAT, CAT.cases[label], presentation=True)
        prec = plan.prec(None)
        _, leads = _kernel_leads(runner, 24, prec)
        counts = HilbertSeries([(1, 0)], runner.weights2).expand(24)
        quotient = monomial_quotient(leads, runner.weights2).expand(24)
        for j2 in range(25):
            assert counts[j2] == len(weighted_monomials(runner.weights2, j2)), (label, j2)
            assert quotient[j2] == len(_enumerated_standard(runner.weights2, leads, j2))
        for j2, dim in zip(plan.weights2, plan.dims):
            assert runner.span_rank(j2, prec, dim) == dim
            rows = runner.border(j2, prec)
            standard = [m for m in rows if not any(all(map(le, a, m)) for a in leads)]
            assert standard == _enumerated_standard(runner.weights2, leads, j2), (label, j2)
        checked.append(label)
    assert len(checked) >= 8 and "half12" in checked


def test_the_inputs_are_not_changed():
    rels = [{(2, 0): 1, (0, 2): 6}, {(1, 1): 3, (0, 2): 1}]
    copies = [dict(r) for r in rels]
    assert groebner.leading_monomials(rels, (1, 1), 6, 7)
    assert rels == copies


def test_case_10_needs_a_fourth_leading_term():
    """Case 10's three quadric relations have a Gröbner basis with four
    leading monomials up to its kernel weight: their own leading monomials
    do not generate the leading-term ideal."""
    case = CAT.cases["10"]
    runner = CaseRunner(CAT, case, presentation=True)
    plan = check_plan(CAT, "kernel", "10")
    rel_terms, leads = _kernel_leads(runner, plan.weights2[-1], plan.prec(None))
    assert len(rel_terms) == 3 and len(leads) == 4
    own = {max(terms) for _, terms in rel_terms}
    assert own < set(leads)
    extra = (set(leads) - own).pop()
    assert _weight(extra, runner.weights2) == 6  # found at weight 3

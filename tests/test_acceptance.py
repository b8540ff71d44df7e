"""Acceptance gate: every criterion as one timed pass/fail check.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  All comparisons are exact; the stated runtime budgets are
asserted as hard bounds.
"""

import time
from fractions import Fraction

from mfring.catalog import load_catalog
from mfring.characters import named_character
from mfring.constructors import eis_f, eisenstein_c, eisenstein_e
from mfring.cyclo import cyclo_context
from mfring.hilbert import HilbertSeries, dim_mismatches
from mfring.verify import (
    verify_hilbert,
    verify_identity,
    verify_integrality,
    verify_kernel,
    verify_relations,
    verify_span,
    weighted_monomials,
    CaseRunner,
    dim_or_none,
)

from test_properties import (
    prop_character_multiplicativity,
    prop_character_orthogonality,
    prop_conj_involution,
    prop_field_axioms,
    prop_rank_nullity,
    prop_rank_stabilization,
    prop_v_operator,
)

CAT = load_catalog()


def _report(n, label, t0, budget):
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {n} ({label}): PASS [{elapsed:.2f} s, budget {budget} s]")
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget"


def _sigma(k, n):
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def test_criterion_1_eisenstein_fixtures():
    t0 = time.monotonic()
    prec = 50
    c1, c2, c4, c6, c10 = (cyclo_context(L) for L in (1, 2, 4, 6, 10))
    e4 = eisenstein_e(4, prec, c1)
    e6 = eisenstein_e(6, prec, c1)
    assert e4.coefficient(1) == 240 and e6.coefficient(1) == -504
    for n in range(1, prec):
        assert e4.coefficient(n) == 240 * _sigma(3, n)
        assert e6.coefficient(n) == -504 * _sigma(5, n)
    probe = eisenstein_e(2, prec, c1).scale(Fraction(-1, 24))
    assert probe.coefficient(0) == Fraction(-1, 24)
    for n in range(1, prec):
        assert probe.coefficient(n) == _sigma(1, n)
    for p in (2, 3, 5, 7):
        cp = eisenstein_c(p, prec, c1)
        assert cp.coefficient(0) == 1
        assert cp.coefficient(1) == Fraction(24, p - 1)
    leads = {
        "rho3": (c2, c2.from_rational(6)),
        "rho4": (c2, c2.from_rational(4)),
        "chi5": (c4, c4.from_rational(3) - c4.zeta_power(1)),
        "chi7": (c6, c6.from_rational(3) - c6.zeta_power(1) * 2),
        "rho7": (c2, c2.from_rational(2)),
        "rho8": (c2, c2.from_rational(2)),
        "chi9": (c6, c6.from_rational(2) - c6.zeta_power(1)),
        "chi11": (c10, c10.zeta_power(3) - c10.zeta_power(4) * 2),
        "chi16": (c4, c4.one - c4.zeta_power(1)),
    }
    for name, (ctx, want) in leads.items():
        series = eis_f(1, named_character(name), prec, ctx)
        assert series.coefficient(0) == ctx.one and series.coefficient(1) == want, name
    _report(1, "eisenstein fixtures", t0, 1.0)


def test_criterion_2_identity_suite():
    t0 = time.monotonic()
    names = sorted(CAT.identities)
    assert len(names) == 16
    for name in names:
        assert verify_identity(CAT, name).status == "pass", name
    _report(2, f"identity suite ({len(names)} identities)", t0, 10.0)


SPAN_CASES = ["1", "2", "3", "5", "6", "7", "8", "9", "10", "11h3", "12",
              "13h3", "14h9", "16h9", "18h7", "25h6",
              "half4", "half8", "half12", "half16h9"]


def test_criterion_3_span_suite():
    t0 = time.monotonic()
    for label in SPAN_CASES:
        case = CAT.cases[label]
        assert case.span_kmax2 >= 8, label  # every case reaches weight 4
        if len(case.span_gens) <= 2:
            assert case.span_kmax2 >= 12, label  # small cases reach weight 6
        report = verify_span(CAT, label)
        assert report.status == "pass", (label, report.details)
        assert report.details["ranks"] == report.details["dims"], label
    _report(3, f"span suite ({len(SPAN_CASES)} cases)", t0, 600.0)


RELATION_CASES = ["7", "9", "10", "11h3", "11full", "half12", "14h9",
                  "16full", "18h7", "half16h9"]


def test_criterion_4_relation_suite():
    t0 = time.monotonic()
    total = 0
    for label in RELATION_CASES:
        report = verify_relations(CAT, label)
        assert report.status == "pass", (label, report.details)
        total += len(report.details["relations"])
    assert total == 25  # conjugate members of each family included
    _report(4, f"relation suite ({total} relations)", t0, 120.0)


KERNEL_CASES = ["7", "9", "11h3", "14h9", "18h7"]


def test_criterion_5_kernel_exhaustion():
    t0 = time.monotonic()
    for label in KERNEL_CASES:
        case = CAT.cases[label]
        report = verify_kernel(CAT, label, kmax2=12)  # weights up to 6
        assert report.status == "pass", (label, report.details)
        runner = CaseRunner(CAT, case, presentation=True)
        for j2, dk, di in zip(report.details["weights2"],
                              report.details["kernel_dims"],
                              report.details["ideal_dims"]):
            mon = len(weighted_monomials(runner.weights2, j2))
            assert dk == di == mon - dim_or_none(CAT, case, j2), (label, j2)
    eleven = verify_kernel(CAT, "11h3", kmax2=12).details
    assert eleven["kernel_dims"][-1] == 1 and eleven["ideal_dims"][-1] == 1
    _report(5, f"kernel exhaustion ({len(KERNEL_CASES)} cases, weights <= 6)", t0, 300.0)


def test_criterion_6_hilbert_suite():
    t0 = time.monotonic()
    with_hilbert = [label for label, case in sorted(CAT.cases.items())
                    if case.presentation and case.presentation.hilbert_num]
    for label in with_hilbert:
        assert verify_hilbert(CAT, label, horizon2=40).status == "pass", label
    # the quoted closed forms, horizon 20
    free46 = HilbertSeries([(1, 0)], [8, 12])
    assert dim_mismatches(free46.expand(40), lambda j2: _dim_or_none("g1", j2),
                          lattice_mod=2) == []
    ext = HilbertSeries([(1, 0), (1, 4)], [2, 2])
    assert ext.expand(40)[::2] == [1] + [2 * k for k in range(1, 21)]
    for n in range(1, 6):
        lemma5 = HilbertSeries([(1, 0), (n - 1, 2)], [2, 2])
        assert lemma5.expand(40)[::2] == [n * k + 1 for k in range(21)]
    lemma6 = HilbertSeries([(1, 0), (1, 2), (1, 4)], [2, 4])
    assert lemma6.expand(40)[::2] == [k + k // 2 + 1 for k in range(21)]
    _report(6, f"hilbert suite ({len(with_hilbert)} claimed series + closed forms)", t0, 1.0)


def _dim_or_none(group, j2):
    from mfring.errors import OutOfTable

    if j2 == 0:
        return 1
    try:
        return CAT.dim2(group, j2)
    except OutOfTable:
        return None


def test_criterion_7_integrality():
    t0 = time.monotonic()
    assert verify_integrality(CAT, "alpha1").status == "pass"
    assert verify_integrality(CAT, "alpha7").status == "pass"
    control = verify_integrality(CAT, "f[1;chi5]")
    assert control.status == "fail"
    _report(7, "integrality (alpha1, alpha7; negative control fails)", t0, 1.0)


def test_criterion_8_property_suites():
    t0 = time.monotonic()
    prop_field_axioms(8001, rounds=10)
    prop_conj_involution(8002, rounds=10)
    prop_v_operator(8003, rounds=6)
    prop_character_multiplicativity(8004, rounds=15)
    prop_character_orthogonality()
    prop_rank_nullity("9", 8)
    prop_rank_stabilization("7", 10)
    _report(8, "property suites (field, conj, V-operator, characters, ranks)", t0, 120.0)

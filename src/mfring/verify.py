"""Verification engine: spanning ranks, relation vanishing, kernel exhaustion.

Every check reduces to exact linear algebra over Q(zeta_L): rows are
either truncated q-expansions (for spans and kernels of the evaluation
map) or coefficient vectors on a monomial basis (for the degreewise span
of a relation ideal).  Gaussian elimination pivots on the leftmost
nonzero entry with no size heuristics, so runs are bit-for-bit
reproducible.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .catalog import Case, Catalog
from .cyclo import CycloNum
from .errors import OutOfTable, PrecisionTooLow, UnknownIdentity
from .exprs import parse_poly
from .hilbert import HilbertSeries, equal_to_dims
from .qseries import QSeries

GUARD = 8  # extra coefficients beyond every certified cutoff


@dataclass(frozen=True)
class GenPoly:
    """Polynomial in named generators with cyclotomic coefficients."""

    variables: tuple[str, ...]
    weights2: tuple[int, ...]
    terms: dict  # exponent vector -> CycloNum

    @classmethod
    def from_text(cls, text: str, gens, ctx) -> "GenPoly":
        names = tuple(g.name for g in gens)
        weights = tuple(g.w2 for g in gens)
        return cls(names, weights, parse_poly(text, names, ctx))

    def weight2(self) -> int:
        """Total weight; raises if the terms are not homogeneous."""
        weights = {sum(e * w for e, w in zip(exps, self.weights2)) for exps in self.terms}
        if len(weights) > 1:
            raise ValueError(f"inhomogeneous polynomial: weights {sorted(weights)}")
        return weights.pop() if weights else 0

    def multiply_monomial(self, exps) -> "GenPoly":
        shifted = {tuple(a + b for a, b in zip(t, exps)): c for t, c in self.terms.items()}
        return GenPoly(self.variables, self.weights2, shifted)


@dataclass
class VerificationReport:
    case: str
    check: str  # span | relation | kernel | hilbert | identity | integrality
    k_range: tuple[int, int]  # doubled weights
    precision: int
    status: str  # pass | fail | skipped
    details: dict
    elapsed_ms: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "case": self.case,
                "check": self.check,
                "k_range": list(self.k_range),
                "precision": self.precision,
                "status": self.status,
                "details": self.details,
                "elapsed_ms": self.elapsed_ms,
            }
        )

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def weighted_monomials(weights2, k2: int) -> list[tuple[int, ...]]:
    """All exponent vectors e with sum(e*w) == k2, lexicographically ordered."""
    weights2 = list(weights2)
    out: list[tuple[int, ...]] = []

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == len(weights2):
            if remaining == 0:
                out.append(prefix)
            return
        if i == len(weights2) - 1:
            if remaining % weights2[i] == 0:
                out.append(prefix + (remaining // weights2[i],))
            return
        for e in range(remaining // weights2[i], -1, -1):
            rec(i + 1, remaining - e * weights2[i], prefix + (e,))

    rec(0, k2, ())
    return sorted(out, reverse=True)


def row_echelon_rank(rows) -> int:
    """Rank by exact elimination; pivot on the leftmost nonzero entry."""
    pivots: list[tuple[int, list[CycloNum]]] = []
    for row in rows:
        row = list(row)
        for col, prow in pivots:
            c = row[col]
            if not c.is_zero():
                for j in range(col, len(row)):
                    row[j] = row[j] - c * prow[j]
        lead = next((j for j, v in enumerate(row) if not v.is_zero()), None)
        if lead is not None:
            inv = row[lead].invert()
            pivots.append((lead, [v * inv for v in row]))
            pivots.sort(key=lambda t: t[0])
    return len(pivots)


class CaseRunner:
    """Evaluates one catalog case: generator series, monomials, relations."""

    def __init__(self, catalog: Catalog, case: Case, presentation: bool = False):
        self.catalog = catalog
        self.case = case
        self.presentation = presentation
        gens = catalog.case_gens(case, presentation=presentation)
        self.gens = gens
        self.weights2 = tuple(g.w2 for g in gens)
        locals_ = {g.name: g.expr for g in gens}
        self.aux = ()
        if presentation and case.presentation is not None:
            self.aux = case.presentation.aux
            locals_.update({g.name: g.expr for g in self.aux})
        self.evaluator = catalog.evaluator(case.L, locals_)
        self._monomials: dict = {}

    def group(self):
        return self.catalog.group(self.case.group)

    def dim2(self, j2: int) -> int:
        return self.catalog.dim2(self.case.group, j2, case=self.case.label)

    def sturm2(self, w2: int) -> int:
        return self.catalog.sturm2(self.case.group, w2)

    def half_graded(self) -> bool:
        return any(w % 2 for w in self.weights2)

    def gen_series(self, i: int, prec: int) -> QSeries:
        return self.evaluator.series(self.gens[i].name, prec)

    def monomial_series(self, exps: tuple[int, ...], prec: int) -> QSeries:
        cached = self._monomials.get(exps)
        if cached is not None and cached.prec >= prec:
            return cached.truncate(prec) if cached.prec > prec else cached
        if not any(exps):
            out = QSeries.one(self.evaluator.ctx, prec)
        else:
            i = next(j for j, e in enumerate(exps) if e)
            rest = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
            out = self.gen_series(i, prec) * self.monomial_series(rest, prec)
        self._monomials[exps] = out
        return out

    def span_rank(self, k2: int, prec: int) -> int:
        bound = self.sturm2(k2)
        if prec < bound:
            raise PrecisionTooLow(f"need at least {bound} coefficients, got {prec}")
        mons = weighted_monomials(self.weights2, k2)
        rows = [self.monomial_series(e, prec).coeffs for e in mons]
        return row_echelon_rank(rows)

    def relation_poly(self, rel) -> GenPoly:
        return GenPoly.from_text(rel.poly, tuple(self.gens) + tuple(self.aux),
                                 self.evaluator.ctx)

    def relation_terms(self, rel) -> dict:
        return self.relation_poly(rel).terms

    def eval_poly(self, poly: GenPoly, prec: int) -> QSeries:
        """Substitute catalog q-expansions into a generator polynomial."""
        ngens = len(self.gens)
        aux_names = [g.name for g in self.aux]
        out = QSeries.zero(self.evaluator.ctx, prec)
        for exps, coeff in poly.terms.items():
            term = self.monomial_series(exps[:ngens], prec).scale(coeff)
            for name, e in zip(aux_names, exps[ngens:]):
                if e:
                    term = term * self.evaluator.series(name, prec) ** e
            out = out + term
        return out

    def relation_series(self, rel, prec: int) -> QSeries:
        return self.eval_poly(self.relation_poly(rel), prec)


def _admissible_weights(runner: CaseRunner, kmax2: int):
    """Doubled weights to check: the case lattice intersected with the table."""
    step = 1 if runner.half_graded() else 2
    for j2 in range(0, kmax2 + 1, step):
        yield j2


def _expected_dim(runner: CaseRunner, j2: int) -> int | None:
    if j2 == 0:
        return 1
    try:
        return runner.dim2(j2)
    except OutOfTable:
        return None


def verify_span(catalog: Catalog, case_label: str, kmax2: int | None = None,
                prec_override: int | None = None) -> VerificationReport:
    t0 = time.monotonic()
    case = catalog.cases[case_label]
    if case.span_gens is None:
        return VerificationReport(case_label, "span", (0, 0), 0, "skipped",
                                  {"reason": "no spanning generator set"}, 0)
    runner = CaseRunner(catalog, case)
    kmax2 = kmax2 if kmax2 is not None else (case.span_kmax2 or 8)
    weights, ranks, dims = [], [], []
    status, first_bad = "pass", None
    prec_used = 0
    for j2 in _admissible_weights(runner, kmax2):
        want = _expected_dim(runner, j2)
        if want is None:
            continue
        prec = max(prec_override or 0, runner.sturm2(j2) + GUARD)
        prec_used = max(prec_used, prec)
        rank = runner.span_rank(j2, prec)
        weights.append(j2)
        ranks.append(rank)
        dims.append(want)
        if rank != want and first_bad is None:
            status = "fail"
            first_bad = {"j2": j2, "rank": rank, "dim": want}
    details = {"weights2": weights, "ranks": ranks, "dims": dims}
    if first_bad:
        details["first_failure"] = first_bad
    return VerificationReport(case_label, "span", (0, kmax2), prec_used, status,
                              details, int((time.monotonic() - t0) * 1000))


def verify_relations(catalog: Catalog, case_label: str,
                     prec_override: int | None = None) -> VerificationReport:
    t0 = time.monotonic()
    case = catalog.cases[case_label]
    pres = case.presentation
    if pres is None or (not pres.relations and not pres.relations_unknown):
        return VerificationReport(case_label, "relation", (0, 0), 0, "skipped",
                                  {"reason": "free presentation, nothing to vanish"}, 0)
    if pres.relations_unknown:
        return VerificationReport(case_label, "relation", (0, 0), 0, "skipped",
                                  {"reason": "relation ideal marked unknown"}, 0)
    runner = CaseRunner(catalog, case, presentation=True)
    names, orders = [], []
    status, first_bad = "pass", None
    max_prec = 0
    lo = min(r.w2 for r in pres.relations)
    hi = max(r.w2 for r in pres.relations)
    for rel in pres.relations:
        prec_w2 = 2 * rel.w2 if runner.half_graded() else rel.w2
        prec = max(prec_override or 0, runner.sturm2(prec_w2) + GUARD)
        max_prec = max(max_prec, prec)
        series = runner.relation_series(rel, prec)
        order = series.vanishing_order()
        names.append(rel.name)
        orders.append(order if order is not None else "zero")
        if order is not None:
            status = "fail"
            if first_bad is None:
                first_bad = {
                    "relation": rel.name,
                    "first_nonzero_index": order,
                    "coefficient": str(series.coefficient(order)),
                }
    details = {"relations": names, "vanishing": orders}
    if first_bad:
        details["first_failure"] = first_bad
    return VerificationReport(case_label, "relation", (lo, hi), max_prec, status,
                              details, int((time.monotonic() - t0) * 1000))


def verify_kernel(catalog: Catalog, case_label: str, kmax2: int | None = None,
                  prec_override: int | None = None) -> VerificationReport:
    t0 = time.monotonic()
    case = catalog.cases[case_label]
    pres = case.presentation
    if pres is None:
        return VerificationReport(case_label, "kernel", (0, 0), 0, "skipped",
                                  {"reason": "no presentation"}, 0)
    if pres.relations_unknown:
        return VerificationReport(case_label, "kernel", (0, 0), 0, "skipped",
                                  {"reason": "relation ideal marked unknown"}, 0)
    if pres.base is not None:
        return VerificationReport(case_label, "kernel", (0, 0), 0, "skipped",
                                  {"reason": "extension over a base ring; degreewise "
                                             "kernel checks cover plain presentations only"}, 0)
    runner = CaseRunner(catalog, case, presentation=True)
    kmax2 = kmax2 if kmax2 is not None else (case.kernel_kmax2 or 12)
    gen_names = [g.name for g in runner.gens]
    rel_terms = [(rel, runner.relation_terms(rel)) for rel in pres.relations]
    weights, kernel_dims, ideal_dims = [], [], []
    status, first_bad = "pass", None
    max_prec = 0
    for j2 in _admissible_weights(runner, kmax2):
        want = _expected_dim(runner, j2)
        if want is None or j2 == 0:
            continue
        prec = max(prec_override or 0, runner.sturm2(j2) + GUARD)
        max_prec = max(max_prec, prec)
        mons = weighted_monomials(runner.weights2, j2)
        rank = row_echelon_rank(
            [runner.monomial_series(e, prec).coeffs for e in mons]
        )
        dim_kernel = len(mons) - rank
        # containment re-check: the relations themselves vanish to this precision
        for rel, _ in rel_terms:
            if runner.relation_series(rel, prec).vanishing_order() is not None:
                status = "fail"
                first_bad = first_bad or {"j2": j2, "relation_nonzero": rel.name}
        index_of = {e: i for i, e in enumerate(mons)}
        vectors = []
        zero = runner.evaluator.ctx.zero
        for rel, terms in rel_terms:
            if rel.w2 > j2:
                continue
            for mult in weighted_monomials(runner.weights2, j2 - rel.w2):
                vec = [zero] * len(mons)
                for exps, coeff in terms.items():
                    tot = tuple(a + b for a, b in zip(exps, mult))
                    vec[index_of[tot]] = vec[index_of[tot]] + coeff
                vectors.append(vec)
        dim_ideal = row_echelon_rank(vectors)
        weights.append(j2)
        kernel_dims.append(dim_kernel)
        ideal_dims.append(dim_ideal)
        if rank != want or dim_ideal != dim_kernel:
            status = "fail"
            if first_bad is None:
                first_bad = {"j2": j2, "rank": rank, "dim": want,
                             "dim_kernel": dim_kernel, "dim_ideal": dim_ideal}
    details = {"weights2": weights, "kernel_dims": kernel_dims, "ideal_dims": ideal_dims}
    if first_bad:
        details["first_failure"] = first_bad
    return VerificationReport(case_label, "kernel", (0, kmax2), max_prec, status,
                              details, int((time.monotonic() - t0) * 1000))


def verify_hilbert(catalog: Catalog, case_label: str, horizon2: int = 40) -> VerificationReport:
    t0 = time.monotonic()
    case = catalog.cases[case_label]
    pres = case.presentation
    if pres is None or pres.hilbert_num is None:
        return VerificationReport(case_label, "hilbert", (0, horizon2), 0, "skipped",
                                  {"reason": "no claimed Hilbert series"}, 0)
    hs = HilbertSeries(pres.hilbert_num, pres.hilbert_den)
    runner = CaseRunner(catalog, case, presentation=True)
    lattice = 1 if runner.half_graded() else 2

    def dim_at(j2: int):
        return _expected_dim(runner, j2)

    ok, first_bad = equal_to_dims(hs, dim_at, horizon2, lattice_mod=lattice)
    details = {"series": hs.render(), "expansion": hs.expand(min(horizon2, 24))}
    if not ok:
        j2, got, want = first_bad
        details["first_failure"] = {"j2": j2, "coefficient": got, "dim": want}
    return VerificationReport(case_label, "hilbert", (0, horizon2), 0,
                              "pass" if ok else "fail", details,
                              int((time.monotonic() - t0) * 1000))


def verify_identity(catalog: Catalog, name: str,
                    prec_override: int | None = None) -> VerificationReport:
    t0 = time.monotonic()
    if name not in catalog.identities:
        raise UnknownIdentity(name)
    ident = catalog.identities[name]
    prec_w2 = 2 * ident.w2 if ident.half_members else ident.w2
    prec = max(prec_override or 0, catalog.sturm2(ident.group, prec_w2) + GUARD)
    series = catalog.evaluator(ident.L).series(ident.expr, prec)
    order = series.vanishing_order()
    status = "pass" if order is None else "fail"
    details = {"expr": ident.expr}
    if order is not None:
        details["first_nonzero_index"] = order
        details["coefficient"] = str(series.coefficient(order))
    return VerificationReport(name, "identity", (ident.w2, ident.w2), prec, status,
                              details, int((time.monotonic() - t0) * 1000))


def verify_integrality(catalog: Catalog, name: str, prec: int = 100) -> VerificationReport:
    """Pass iff the form lies in q + Z[[q]]q^2 to the given precision."""
    t0 = time.monotonic()
    series = catalog.lookup_form(name, prec)
    bad = None
    if not series.coefficient(0).is_zero():
        bad = {"index": 0, "coefficient": str(series.coefficient(0))}
    elif series.coefficient(1) != series.ctx.one:
        bad = {"index": 1, "coefficient": str(series.coefficient(1))}
    else:
        for n in range(2, prec):
            if not series.coefficient(n).is_integer():
                bad = {"index": n, "coefficient": str(series.coefficient(n))}
                break
    details = {} if bad is None else {"first_failure": bad}
    return VerificationReport(name, "integrality", (0, 0), prec,
                              "pass" if bad is None else "fail", details,
                              int((time.monotonic() - t0) * 1000))


INTEGRALITY_FORMS = ("alpha1", "alpha7")

_CHECK_ORDER = {"identity": 0, "span": 1, "relation": 2, "kernel": 3,
                "hilbert": 4, "integrality": 5}


def full_report(catalog: Catalog, checks=None, cases=None,
                kmax2: int | None = None, prec_override: int | None = None,
                horizon2: int = 40) -> list[VerificationReport]:
    """Run the selected checks over the selected cases; never aborts the batch."""
    selected = set(checks) if checks else set(_CHECK_ORDER)
    labels = list(cases) if cases else None
    reports: list[VerificationReport] = []

    def want_case(label: str) -> bool:
        return labels is None or label in labels

    if "identity" in selected:
        for name in sorted(catalog.identities):
            if labels is None or name in labels:
                reports.append(_guard(lambda: verify_identity(catalog, name, prec_override),
                                      name, "identity"))
    for label in sorted(catalog.cases):
        if not want_case(label):
            continue
        case = catalog.cases[label]
        if "span" in selected and case.span_gens is not None:
            reports.append(_guard(lambda: verify_span(catalog, label, kmax2, prec_override),
                                  label, "span"))
        if "relation" in selected and case.presentation is not None and (
            case.presentation.relations or case.presentation.relations_unknown
        ):
            reports.append(_guard(lambda: verify_relations(catalog, label, prec_override),
                                  label, "relation"))
        if "kernel" in selected and case.presentation is not None and case.kernel_kmax2:
            reports.append(_guard(lambda: verify_kernel(catalog, label, kmax2, prec_override),
                                  label, "kernel"))
        if "hilbert" in selected and case.presentation is not None and (
            case.presentation.hilbert_num is not None
        ):
            reports.append(_guard(lambda: verify_hilbert(catalog, label, horizon2),
                                  label, "hilbert"))
    if "integrality" in selected:
        for name in INTEGRALITY_FORMS:
            if labels is None or name in labels:
                reports.append(_guard(lambda: verify_integrality(catalog, name),
                                      name, "integrality"))
    reports.sort(key=lambda r: (r.case, _CHECK_ORDER.get(r.check, 9), r.k_range))
    return reports


def _guard(thunk, label: str, kind: str) -> VerificationReport:
    try:
        return thunk()
    except Exception as exc:  # aggregated, never aborts the batch
        return VerificationReport(label, kind, (0, 0), 0, "fail",
                                  {"error": f"{type(exc).__name__}: {exc}"}, 0)

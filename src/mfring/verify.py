"""Verification engine: spanning ranks, relation vanishing, kernel exhaustion.

Every check reduces to linear algebra over Q(zeta_L): spans and kernels of
the evaluation map are ranks of truncated q-expansions, and the degreewise
dimension of a relation ideal comes from a Gröbner basis.  Each rank has a
known upper bound, and a rank modulo a prime equal to the bound proves it
(``certified_rank``); at every other weight, whether the rank mod p falls
short of the bound or exceeds it, the rank is computed by exact
elimination, so a failing report carries exact ranks.
Each check runs at the one precision of its plan (``check_plan``), GUARD
coefficients past the largest Sturm cutoff of its weights.  Span and kernel
checks climb their weights on one ``CaseRunner``, built for that precision
and the plan's rank width, whose ``Filtration`` ranks every monomial of
each weight mod p: it divides them by a power of one generator g that is a
unit mod p, which puts each weight's quotients in one growing echelon basis
per residue class of weights mod the weight of g, so that a weight only
inserts its new g-free rows.  Those rows are
truncated to the width (``Plan.width``): the largest Sturm cutoff or
dimension over the check's own weights, not its guarded precision, since
truncation only lowers a rank and a rank mod p that reaches dim M_k proves
it at any width.  Generator series are still evaluated at the check's
precision, and the exact fallback eliminates their monomials at all of it,
lazily and up to full column rank.  A kernel check
takes an exact Gröbner basis of its relations over Q(zeta_L), truncated at
its top weight (``groebner``), and the Hilbert series of its leading
monomials (``hilbert.monomial_quotient``) counts the standard monomials of
each weight, which give the ideal's dimension there.  Elimination pivots on
the leftmost nonzero entry with no size heuristics, so runs are
bit-for-bit reproducible.
"""

from __future__ import annotations

import json
import time
from functools import cached_property
from itertools import repeat
from operator import mul, sub
from typing import NamedTuple

from . import groebner, modp
from .catalog import Case, Catalog
from .cyclo import CycloNum, fold_buckets, multiplication_matrix
from .errors import OutOfTable, PrecisionTooLow, UnknownIdentity
from .exprs import atoms, parse_expr
from .hilbert import HilbertSeries, dim_mismatches, monomial_quotient
from .qseries import QSeries

GUARD = 8  # extra coefficients beyond every certified cutoff
HILBERT_HORIZON2 = 40  # the doubled weight a Hilbert check compares up to by default


class VerificationReport:
    """The outcome of one check.  A slotted class rather than a dataclass, so
    that importing the package does not import ``dataclasses``; unlike the
    catalog's NamedTuple records it stays mutable."""

    __slots__ = ("case", "check", "k_range", "precision", "status", "details", "elapsed_ms")

    def __init__(self, case: str, check: str, k_range: tuple[int, int], precision: int,
                 status: str, details: dict, elapsed_ms: int = 0):
        self.case = case
        self.check = check  # span | relation | kernel | hilbert | identity | integrality
        self.k_range = k_range  # doubled weights
        self.precision = precision
        self.status = status  # pass | fail | skipped
        self.details = details
        self.elapsed_ms = elapsed_ms

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


def weighted_monomials(weights2, k2: int) -> list[tuple[int, ...]]:
    """All exponent vectors e with sum(e*w) == k2, in descending lexicographic
    order: each exponent runs down from its largest value."""
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
    return out


def row_echelon_rank(rows) -> int:
    """Rank of QSeries rows of one precision by exact elimination, pivot on the
    leftmost nonzero coefficient, stopped at prec pivots, its upper bound: no
    row after them is read.

    A pivot is kept as the integer coordinates of its row scaled to lead 1
    over their denominator D, so its lead coefficient is the integer D.  A
    row is reduced on its integer coordinates alone: D times the row minus
    its coefficient c at the pivot's column times the pivot clears that
    column with no division and no gcd, and only a row that becomes a pivot
    is normalised, once, as one QSeries.  Each pivot was reduced by every
    earlier one, so reducing by the pivots in insertion order clears all
    their columns."""
    pivots: list[tuple[int, int, tuple[int, ...]]] = []  # (lead coordinate, D, coordinates)
    for row in rows:
        ctx, d, nums = row.ctx, row.ctx.degree, list(row.nums)
        for at, den, pnums in pivots:
            c = nums[at:at + d]
            if any(c):
                times_c = fold_buckets(pnums, multiplication_matrix(CycloNum(ctx, c))[1], d)
                nums = list(map(sub, map(mul, nums, repeat(den)), times_c))
        lead = next((k for k, x in enumerate(nums) if x), None)
        if lead is not None:
            at = lead - lead % d
            inv_den, inv_rows = multiplication_matrix(CycloNum(ctx, nums[at:at + d]).invert())
            pivot = QSeries(ctx, fold_buckets(nums, inv_rows, d), inv_den)
            pivots.append((at, pivot.den, pivot.nums))
            if len(pivots) == row.prec:
                break
    return len(pivots)


def certified_rank(bound: int, rank_mod_p: int | None, exact_rows) -> int:
    """The rank of a matrix over Q(zeta_L) known to be at most bound, given
    its rank under a reduction mod p, or None where no reduction applies.

    Reduction is a ring map on p-integral entries, so rank_p <= rank <=
    bound, and rank_p == bound proves rank == bound.  Anywhere else, where
    the rank mod p falls short of the bound, exceeds it (the bound is
    wrong) or is None, ``exact_rows()`` gives the matrix, QSeries rows that
    ``row_echelon_rank`` reads only up to its last pivot, so a check that
    fails reports the exact rank.
    """
    if rank_mod_p == bound:
        return bound
    return row_echelon_rank(exact_rows())


class Filtration:
    """Ranks mod p, at doubled weight after doubled weight from 0, of every
    monomial in packed generator rows, along the multiplication filtration
    of a unit generator.

    g is the first generator whose row has a nonzero constant term, and w its
    doubled weight.  g is a unit mod (p, q^n), so the weight-k2 monomials
    divided by g^j, j = k2 // w, have the rank of the monomials themselves,
    and those of weight k2 - w are among them (each times g).  So one echelon
    basis per class of k2 mod w grows weight by weight, and after the
    monomials free of g of weight k2 its size is the rank mod p of every
    monomial of weight k2: no rank stops at a bound.  This is the device of
    Victor Miller's triangular bases (Stein, *Modular Forms: A Computational
    Approach*, AMS GSM 79, ch. 2).  With no unit generator every weight gets
    a fresh basis of its own over all the generators, with no division.

    The g-free monomials of weight k2 are offered in ascending lexicographic
    order, and only those whose quotient by each generator x_i they contain
    was inserted, that is raised its basis, at weight k2 - w_i
    (``groebner.border``).  That misses no monomial that would raise the
    basis: if b was not inserted, g^-j' b lies in the basis of weight
    k2 - w_i - w and the lexicographically smaller g-free monomials of its
    weight, and multiplying by x_i g^-e, e = k2 // w - (k2 - w_i) // w,
    puts g^-j x_i b in the basis of weight k2 - w and the smaller g-free
    monomials of weight k2.  So the row of x_i b is one product, the row of
    b times x_i g^-e, which takes one of two values per generator, and only
    one where w divides w_i.
    """

    def __init__(self, red: modp.Reduction, rows: list[int], weights2: tuple[int, ...]):
        self.red = red
        self.unit = next((i for i, row in enumerate(rows) if row & modp.SLOT), None)
        free = [i for i in range(len(rows)) if i != self.unit]
        self.weights2 = tuple(weights2[i] for i in free)  # of the g-free generators
        self.step = None if self.unit is None else weights2[self.unit]
        inv = None if self.unit is None else red.inverse(rows[self.unit])
        # per g-free generator x_i: x_i g^-e for e = w_i // w, and for one more,
        # which a weight needs only where w does not divide w_i
        self.factors = []
        for i in free:
            row = rows[i]
            if inv is None:
                self.factors.append((row,))
                continue
            for _ in range(weights2[i] // self.step):
                row = red.mul(row, inv)
            self.factors.append((row, red.mul(row, inv)) if weights2[i] % self.step else (row,))
        self.chains: dict[int, modp.Echelon] = {}  # k2 mod w (k2 itself with no unit) -> basis
        self.inserted: list[list[tuple[int, ...]]] = []  # per weight: g-free monomials inserted
        self.vectors: dict[tuple[int, ...], int] = {}  # inserted monomial -> its row over g^j
        self.ranks: list[int] = []  # per weight: the rank mod p of every monomial

    def rank(self, k2: int) -> int:
        """The rank mod p of every monomial of doubled weight k2."""
        while len(self.ranks) <= k2:
            self._insert(len(self.ranks))
        return self.ranks[k2]

    def _insert(self, k2: int) -> None:
        """Offer the basis of k2's class the candidates of doubled weight k2,
        once every weight below is done."""
        red, w, vectors = self.red, self.step, self.vectors
        chain = self.chains.setdefault(k2 if w is None else k2 % w, modp.Echelon(red))
        inserted: list[tuple[int, ...]] = []
        for m, i, b in groebner.border(self.weights2, self.inserted.__getitem__, k2):
            if i is None:  # the monomial 1
                row = 1
            else:
                w2 = self.weights2[i]
                extra = 0 if w is None else k2 // w - (k2 - w2) // w - w2 // w  # e - w2 // w
                row = red.mul(self.factors[i][extra], vectors[b])
            if chain.insert(row):
                inserted.append(m)
                vectors[m] = row
        self.inserted.append(inserted)
        self.ranks.append(len(chain))


class CaseRunner:
    """Evaluates one catalog case for one check: generator series, monomials
    and relations at the check's precision prec, and ranks mod p at its rank
    width, the first width coefficients of each row."""

    def __init__(self, catalog: Catalog, case: Case, presentation: bool = False,
                 prec: int = 0, width: int = 0):
        self.catalog = catalog
        self.case = case
        self.gens = catalog.case_gens(case, presentation=presentation)
        self.weights2 = tuple(g.w2 for g in self.gens)
        self.aux = case.presentation.aux if presentation else ()  # case_gens checked it exists
        self.evaluator = catalog.evaluator(case.L)
        self.prec = prec
        self.width = width
        self._monomials: dict = {}

    def sturm2(self, w2: int) -> int:
        return self.catalog.sturm2(self.case.group, w2)

    def gen_series(self, i: int, prec: int) -> QSeries:
        return self.evaluator.series(self.gens[i].expr, prec)

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

    @cached_property
    def filtration(self) -> Filtration | None:
        """The ranks mod p of the runner's monomials at its width, from the
        first width coefficients of each generator series reduced once; None
        where no prime fits the width or a generator is not p-integral."""
        red = modp.reduction(self.evaluator.ctx, self.width)
        if red is None:
            return None
        try:
            rows = [red.series(self.gen_series(i, self.prec)) for i in range(len(self.gens))]
        except ZeroDivisionError:
            return None
        return Filtration(red, rows, self.weights2)

    def span_rank(self, k2: int, dim: int) -> int:
        """Rank of the weight-k2 monomials truncated to the runner's prec
        coefficients.

        They lie in M_k and truncation only lowers rank, so dim = dim M_k
        bounds it.  The runner's ``Filtration`` gives the rank mod p of all
        of them, truncated further to their first width coefficients; if it
        equals dim it proves the rank, and otherwise all of them are ranked
        by exact elimination at prec (``certified_rank``).
        """
        prec, width, bound = self.prec, self.width, self.sturm2(k2)
        if prec < bound:
            raise PrecisionTooLow(f"need at least {bound} coefficients, got {prec}")
        if width > prec:  # the rows' products would read coefficients never computed
            raise ValueError(f"rank width {width} exceeds the precision {prec}")
        filtration = self.filtration
        return certified_rank(
            dim, None if filtration is None else filtration.rank(k2),
            lambda: (self.monomial_series(e, prec) for e in weighted_monomials(self.weights2, k2)))

    def relation_terms(self, rel) -> dict:
        """The relation as {exponent vector over gens then aux: CycloNum}."""
        return self.catalog.relation_terms(self.case, rel)

    def eval_poly(self, terms: dict, prec: int) -> QSeries:
        """Substitute catalog q-expansions into a generator polynomial."""
        ngens = len(self.gens)
        out = QSeries.zero(self.evaluator.ctx, prec)
        for exps, coeff in terms.items():
            term = self.monomial_series(exps[:ngens], prec).scale(coeff)
            for aux, e in zip(self.aux, exps[ngens:]):
                if e:
                    term = term * self.evaluator.series(aux.expr, prec) ** e
            out = out + term
        return out

    def relation_series(self, rel, prec: int) -> QSeries:
        """The relation evaluated to prec, kept in the conductor's series
        cache, so every check of the case shares it."""
        return self.evaluator.cached(("relation", self.case.label, rel.poly), prec,
                                     lambda p: self.eval_poly(self.relation_terms(rel), p))

    def relation_values(self):
        """(relation, its series to the check's precision, index of its first
        nonzero coefficient or None) for each relation of the presentation."""
        for rel in self.case.presentation.relations:
            series = self.relation_series(rel, self.prec)
            yield rel, series, series.vanishing_order()


class Plan(NamedTuple):
    """The weights one check evaluates, the cutoff that certifies it, the one
    precision it works at and the one width of its ranks mod p."""

    k_range: tuple[int, int] = (0, 0)  # doubled weights, as reported
    weights2: tuple[int, ...] = ()  # doubled weights evaluated
    dims: tuple[int, ...] = ()  # dim M_k at each of them (span and kernel)
    cutoff: int = 0  # certified coefficient cutoff
    skip: str | None = None  # why the check does not run, if it does not
    prec: int = 0  # cutoff + GUARD
    # min(prec, max over weights2 of max(sturm2, dim)): each weight's Sturm cutoff
    # fixes a form, and a rank of dim needs dim columns (span and kernel)
    width: int = 0


def dim_or_none(catalog: Catalog, case: Case, j2: int) -> int | None:
    """dim M at doubled weight j2, or None outside the table."""
    try:
        return catalog.dim2(case.group, j2)
    except OutOfTable:
        return None


def _half_graded(weights2) -> bool:
    return any(w % 2 for w in weights2)


def _skip_reason(check: str, case: Case) -> str | None:
    """Why a span, relation, kernel or Hilbert check of a case does not run,
    or None if it runs."""
    pres = case.presentation
    if check == "span":
        return None if case.span_gens is not None else "no spanning generator set"
    if pres is None:
        return "no presentation"
    if check == "hilbert":
        return None if pres.hilbert_num is not None else "no claimed Hilbert series"
    if check == "relation" and not (pres.relations or pres.relations_unknown):
        return "free presentation, nothing to vanish"
    if pres.relations_unknown:
        return "relation ideal marked unknown"
    if check == "kernel" and pres.base is not None:
        return ("extension over a base ring; degreewise "
                "kernel checks cover plain presentations only")
    if check == "kernel" and pres.aux:
        return ("relations in auxiliary series; degreewise "
                "kernel checks cover plain presentations only")
    if check == "kernel" and not case.kernel_kmax2:
        return "no kernel bound (kernel_kmax2) in the catalog"
    return None


def check_plan(catalog: Catalog, check: str, label: str,
               kmax2: int | None = None) -> Plan:
    """The precision rule of the identity, span, relation and kernel checks.

    A check evaluates at the doubled weights ``weights2`` and works at
    ``Plan.prec``: GUARD coefficients past ``cutoff``, the largest Sturm
    bound over those weights.  The largest, not the top weight's, because
    the bound is not monotone across parity: on g4, sturm2(8) = 4 but
    sturm2(9) = 3.  Relations and identities of half-integral rings, those
    whose generators or atoms have an odd doubled weight, are certified at
    twice their weight.  A kernel check passes only if its relations
    vanish, so its cutoff covers the relation plan's too.  Its ranks mod p
    read ``Plan.width`` columns, which neither widens.
    """
    if check == "identity":
        if label not in catalog.identities:
            raise UnknownIdentity(label)
        ident = catalog.identities[label]
        doubled = _half_graded(catalog.weight2(("atom", a)) for a in atoms(parse_expr(ident.expr)))
        group, weights2, dims, k_range = ident.group, (ident.w2,), (), (ident.w2, ident.w2)
    else:
        case = catalog.cases[label]
        skip = _skip_reason(check, case)
        if skip is not None:
            return Plan(skip=skip)
        group = case.group
        half = _half_graded(g.w2 for g in catalog.case_gens(case, presentation=check != "span"))
        if check == "relation":
            weights2, dims, doubled = tuple(r.w2 for r in case.presentation.relations), (), half
            k_range = (min(weights2), max(weights2))
        else:
            default = case.span_kmax2 if check == "span" else case.kernel_kmax2
            top = kmax2 if kmax2 is not None else default
            step = 1 if half else 2
            lattice = range(0 if check == "span" else step, top + 1, step)
            known = [(j2, d) for j2 in lattice if (d := dim_or_none(catalog, case, j2)) is not None]
            weights2, dims = tuple(j2 for j2, _ in known), tuple(d for _, d in known)
            doubled, k_range = False, (0, top)
    sturms = [catalog.sturm2(group, 2 * w if doubled else w) for w in weights2]
    cutoff, width = max(sturms, default=0), max(map(max, sturms, dims), default=0)
    if check == "kernel":
        cutoff = max(cutoff, check_plan(catalog, "relation", label).cutoff)
    prec = cutoff + GUARD
    return Plan(k_range, weights2, dims, cutoff, prec=prec, width=min(prec, width))


def _skipped(label: str, check: str, reason: str) -> VerificationReport:
    return VerificationReport(label, check, (0, 0), 0, "skipped", {"reason": reason}, 0)


def _ms_since(t0: float) -> int:
    return int((time.monotonic() - t0) * 1000)


def verify_span(catalog: Catalog, case_label: str, kmax2: int | None = None) -> VerificationReport:
    t0 = time.monotonic()
    plan = check_plan(catalog, "span", case_label, kmax2)
    if plan.skip:
        return _skipped(case_label, "span", plan.skip)
    runner = CaseRunner(catalog, catalog.cases[case_label], prec=plan.prec, width=plan.width)
    ranks = [runner.span_rank(j2, d) for j2, d in zip(plan.weights2, plan.dims)]
    details = {"weights2": list(plan.weights2), "ranks": ranks, "dims": list(plan.dims)}
    bad = [(j2, r, d) for j2, r, d in zip(plan.weights2, ranks, plan.dims) if r != d]
    if bad:
        j2, rank, want = bad[0]
        details["first_failure"] = {"j2": j2, "rank": rank, "dim": want}
    return VerificationReport(case_label, "span", plan.k_range, plan.prec,
                              "fail" if bad else "pass", details, _ms_since(t0))


def verify_relations(catalog: Catalog, case_label: str) -> VerificationReport:
    t0 = time.monotonic()
    plan = check_plan(catalog, "relation", case_label)
    if plan.skip:
        return _skipped(case_label, "relation", plan.skip)
    runner = CaseRunner(catalog, catalog.cases[case_label], presentation=True, prec=plan.prec)
    names, orders = [], []
    status, first_bad = "pass", None
    for rel, series, order in runner.relation_values():
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
    return VerificationReport(case_label, "relation", plan.k_range, plan.prec, status,
                              details, _ms_since(t0))


def verify_kernel(catalog: Catalog, case_label: str,
                  kmax2: int | None = None) -> VerificationReport:
    t0 = time.monotonic()
    plan = check_plan(catalog, "kernel", case_label, kmax2)
    if plan.skip:
        return _skipped(case_label, "kernel", plan.skip)
    runner = CaseRunner(catalog, catalog.cases[case_label], presentation=True,
                        prec=plan.prec, width=plan.width)
    status, first_bad = "pass", None
    # the ideal lies in the kernel only if each relation vanishes; check each once
    rels = []
    for rel, _, order in runner.relation_values():
        if order is not None:
            status = "fail"
            first_bad = first_bad or {"relation_nonzero": rel.name}
        rels.append(runner.relation_terms(rel))
    # an exact basis truncated at the top weight gives dim I = #monomials - #standard
    # at every weight up to it, whether or not the relations vanished
    top2 = plan.k_range[1]
    leads = groebner.leading_monomials(rels, runner.weights2, top2)
    counts = HilbertSeries([(1, 0)], runner.weights2).expand(top2)
    std = monomial_quotient(leads, runner.weights2).expand(top2)
    kernel_dims, ideal_dims = [], []
    for j2, want in zip(plan.weights2, plan.dims):
        rank = runner.span_rank(j2, want)
        dim_kernel = counts[j2] - rank
        dim_ideal = counts[j2] - std[j2]
        kernel_dims.append(dim_kernel)
        ideal_dims.append(dim_ideal)
        if rank != want or dim_ideal != dim_kernel:
            status = "fail"
            if first_bad is None:
                first_bad = {"j2": j2, "rank": rank, "dim": want,
                             "dim_kernel": dim_kernel, "dim_ideal": dim_ideal}
    details = {"weights2": list(plan.weights2), "kernel_dims": kernel_dims,
               "ideal_dims": ideal_dims}
    if first_bad:
        details["first_failure"] = first_bad
    return VerificationReport(case_label, "kernel", plan.k_range, plan.prec, status,
                              details, _ms_since(t0))


def verify_hilbert(catalog: Catalog, case_label: str,
                   horizon2: int = HILBERT_HORIZON2) -> VerificationReport:
    t0 = time.monotonic()
    case = catalog.cases[case_label]
    skip = _skip_reason("hilbert", case)
    if skip:
        return _skipped(case_label, "hilbert", skip)
    hs, coeffs, _, bad = hilbert_mismatches(catalog, case, horizon2)
    details = {"series": hs.render(), "expansion": coeffs[:25]}
    if bad:
        j2, got, want = bad[0]
        details["first_failure"] = {"j2": j2, "coefficient": got, "dim": want}
    return VerificationReport(case_label, "hilbert", (0, horizon2), 0,
                              "fail" if bad else "pass", details, _ms_since(t0))


def hilbert_mismatches(catalog: Catalog, case: Case, horizon2: int):
    """The case's claimed Hilbert series, its expansion to doubled weight
    horizon2, the dimension at each doubled weight there (None off the case's
    weight lattice or outside the table) and the (j2, coefficient, dim)
    mismatches; a lattice weight outside the table counts as dimension 0."""
    pres = case.presentation
    hs = HilbertSeries(pres.hilbert_num, pres.hilbert_den)
    coeffs = hs.expand(horizon2)
    lattice = 1 if _half_graded(g.w2 for g in catalog.case_gens(case, presentation=True)) else 2
    dims = [None if j2 % lattice else dim_or_none(catalog, case, j2) for j2 in range(horizon2 + 1)]
    return hs, coeffs, dims, dim_mismatches(coeffs, dims.__getitem__, lattice)


def verify_identity(catalog: Catalog, name: str) -> VerificationReport:
    t0 = time.monotonic()
    plan = check_plan(catalog, "identity", name)
    ident = catalog.identities[name]
    series = catalog.evaluator(ident.L).series(ident.expr, plan.prec)
    order = series.vanishing_order()
    status = "pass" if order is None else "fail"
    details = {"expr": ident.expr}
    if order is not None:
        details["first_nonzero_index"] = order
        details["coefficient"] = str(series.coefficient(order))
    return VerificationReport(name, "identity", plan.k_range, plan.prec, status,
                              details, _ms_since(t0))


INTEGRALITY_PREC = 100  # coefficients an integrality check reads


def verify_integrality(catalog: Catalog, name: str) -> VerificationReport:
    """Pass iff the form lies in q + Z[[q]]q^2 to INTEGRALITY_PREC coefficients."""
    t0 = time.monotonic()
    prec = INTEGRALITY_PREC
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
                              "pass" if bad is None else "fail", details, _ms_since(t0))


INTEGRALITY_FORMS = ("alpha1", "alpha7")

_CHECK_ORDER = {"identity": 0, "span": 1, "relation": 2, "kernel": 3,
                "hilbert": 4, "integrality": 5}


def scheduled_checks(catalog: Catalog, checks=None, cases=None):
    """The (check, label) pairs that full_report reports for this selection.

    A case check is scheduled where the catalog claims something for it; a
    case named in `cases` gets every selected check, and one that cannot run
    reports why it was skipped (``_skip_reason``).
    """
    selected = set(checks) if checks else set(_CHECK_ORDER)

    def wanted(label: str) -> bool:
        return not cases or label in cases

    if "identity" in selected:
        yield from (("identity", n) for n in sorted(catalog.identities) if wanted(n))
    for label in filter(wanted, sorted(catalog.cases)):
        case = catalog.cases[label]
        pres = case.presentation
        claimed = {
            "span": case.span_gens is not None,
            "relation": pres is not None and bool(pres.relations or pres.relations_unknown),
            "kernel": pres is not None and bool(case.kernel_kmax2),
            "hilbert": pres is not None and pres.hilbert_num is not None,
        }
        yield from ((check, label) for check, claims in claimed.items()
                    if check in selected and (claims or cases))
    if "integrality" in selected:
        yield from (("integrality", n) for n in INTEGRALITY_FORMS if wanted(n))


def full_report(catalog: Catalog, checks=None, cases=None, kmax2: int | None = None,
                horizon2: int = HILBERT_HORIZON2) -> list[VerificationReport]:
    """Run the selected checks over the selected cases, each at the precision
    of its plan; the batch is never aborted."""
    run = {
        "identity": lambda label: verify_identity(catalog, label),
        "span": lambda label: verify_span(catalog, label, kmax2),
        "relation": lambda label: verify_relations(catalog, label),
        "kernel": lambda label: verify_kernel(catalog, label, kmax2),
        "hilbert": lambda label: verify_hilbert(catalog, label, horizon2),
        "integrality": lambda label: verify_integrality(catalog, label),
    }
    reports = [_guard(run[check], label, check)
               for check, label in scheduled_checks(catalog, checks, cases)]
    reports.sort(key=lambda r: (r.case, _CHECK_ORDER.get(r.check, 9), r.k_range))
    return reports


def _guard(run, label: str, kind: str) -> VerificationReport:
    try:
        return run(label)
    except Exception as exc:  # aggregated, never aborts the batch
        return VerificationReport(label, kind, (0, 0), 0, "fail",
                                  {"error": f"{type(exc).__name__}: {exc}"}, 0)

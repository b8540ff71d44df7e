"""Traced runs: spans at each layer's public entry points, plus exact counts.

The tracer patches module and class attributes of the program from outside
and restores them afterwards; no file of the program changes.  Each span
records its name, start, end and parent span (the op that caused it is the
root of its tree).  Spans stay in memory and are written out when the run
ends.  A layer's self time is its span durations minus the time its direct
child spans cover.

Wrapping every ``CycloNum`` operation adds a Python call to the innermost
loop and would inflate the self times of the spans around it, so the
``cyclo.*`` counts come from separate counting passes (``count_cyclo=True``)
whose times are not reported.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter

from workloads import CHECK_FUNCS

CONSTRUCTORS = ("eisenstein_e", "eisenstein_c", "eis_f", "eis_g", "eis_g2",
                "theta_series", "theta_bqf")
CHECK_KINDS = tuple(CHECK_FUNCS)
RANK_KINDS = ("qexp", "ideal")

# count metrics that must repeat exactly between two traced passes of one seed
COUNT_METRICS = (
    "catalog.evaluators_built", "catalog.lookup_calls", "exprs.series_calls",
    "constructors.calls", "constructors.coeffs", "qseries.mul_calls",
    "qseries.mul_coeff_pairs", "qseries.pow_calls", "verify.monomial_calls",
    "verify.rank_calls.qexp", "verify.rank_calls.ideal", "verify.rank_cells.qexp",
    "verify.rank_cells.ideal", "hilbert.terms",
)
CYCLO_METRICS = ("cyclo.mul_calls", "cyclo.add_calls", "cyclo.invert_calls",
                 "cyclo.max_coord_bits")


def _coord_bits(series_coeffs) -> int:
    best = 0
    for c in series_coeffs:
        for x in c.coords:
            if x:
                best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


class Tracer:
    """Records spans and counts while installed; restores the program on uninstall."""

    def __init__(self, mf, count_cyclo: bool = False, clock=time.perf_counter_ns):
        self.mf = mf
        self.count_cyclo = count_cyclo
        self.clock = clock  # ns
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.rank_of: dict[int, tuple[str, int, int, int]] = {}  # span -> kind, rows, cols, rank
        self.ctor_keys: Counter = Counter()
        self.cyclo = [0, 0, 0]  # mul, add (and sub), invert
        self.max_bits = 0
        self._monomial_rows: dict[int, list] = {}  # coefficient lists returned in this check
        self._monomial_before: dict[int, object] = {}  # span -> cache entry at its start
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def span(self, name: str, fn, before=None, after=None):
        names, start, end, parent, stack = self.names, self.start, self.end, self.parent, self.stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            if before is not None:
                before(idx, args)
            stack.append(idx)
            start[idx] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, out)
            return out

        return wrapper

    def root(self, fn):
        """One span per op; every span below it belongs to that request."""
        return self.span("bench.op", fn)

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, new):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, old))
        setattr(owner, attr, new)

    def install(self):
        mf = self.mf
        Catalog, Evaluator = mf.catalog.Catalog, mf.exprs.Evaluator
        QSeries, CaseRunner = mf.qseries.QSeries, mf.verify.CaseRunner
        self._patch(Catalog, "lookup_form",
                    self.span("catalog.lookup_form", Catalog.lookup_form, after=self._bits_out))
        self._patch(Catalog, "evaluator", self.span("catalog.evaluator", Catalog.evaluator))
        self._patch(Evaluator, "series",
                    self.span("exprs.series", Evaluator.series, after=self._bits_out))
        for fname in CONSTRUCTORS:
            self._patch(mf.exprs, fname, self.span("constructors.call", getattr(mf.exprs, fname),
                                                   after=self._ctor_after(fname)))
        mul = QSeries.__dict__["__mul__"]
        traced_mul = self._mul_wrapper(mul, QSeries)
        self._patch(QSeries, "__mul__", traced_mul)
        self._patch(QSeries, "__rmul__", traced_mul)
        self._patch(QSeries, "__pow__", self.span("qseries.pow", QSeries.__dict__["__pow__"]))
        self._patch(QSeries, "__str__", self.span("qseries.render", QSeries.__dict__["__str__"]))
        self._patch(CaseRunner, "monomial_series",
                    self.span("verify.monomial", CaseRunner.monomial_series,
                              before=self._monomial_before_call,
                              after=self._monomial_after_call))
        self._patch(CaseRunner, "relation_series",
                    self.span("verify.relation_eval", CaseRunner.relation_series))
        self._patch(mf.verify, "row_echelon_rank",
                    self.span("verify.rank", mf.verify.row_echelon_rank,
                              before=self._rank_before, after=self._rank_after))
        for kind, fname in CHECK_FUNCS.items():
            self._patch(mf.verify, fname, self.span(f"verify.check.{kind}",
                                                    getattr(mf.verify, fname),
                                                    before=self._check_before))
        expand = mf.hilbert.HilbertSeries.__dict__["expand"]
        self._patch(mf.hilbert.HilbertSeries, "expand",
                    self.span("hilbert.expand", expand, before=self._expand_before))
        if self.count_cyclo:
            self._install_cyclo(mf.cyclo.CycloNum)

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- per-layer hooks --------------------------------------------------

    def _bits_out(self, idx, args, out):
        if self.count_cyclo:
            self.max_bits = max(self.max_bits, _coord_bits(out.coeffs))

    def _ctor_after(self, fname):
        def after(idx, args, out):
            *params, prec, ctx = args
            self.ctor_keys[(fname, repr(params), ctx.L, prec)] += 1
            self.counts["constructors.coeffs"] += out.prec
            self._bits_out(idx, args, out)
        return after

    def _mul_wrapper(self, mul, QSeries):
        traced = self.span("qseries.mul", mul, before=self._mul_before)

        def dispatch(a, b):
            if isinstance(b, QSeries):
                return traced(a, b)
            return mul(a, b)  # scalar multiples are a scale, not a product
        return dispatch

    def _mul_before(self, idx, args):
        a, b = args
        p = min(a.prec, b.prec)
        nonzero_b = [0]
        for c in b.coeffs[:p]:
            nonzero_b.append(nonzero_b[-1] + (not c.is_zero()))
        pairs = 0
        for i, c in enumerate(a.coeffs[:p]):
            if not c.is_zero():
                pairs += nonzero_b[p - i]
        self.counts["qseries.mul_coeff_pairs"] += pairs

    def _check_before(self, idx, args):
        self._monomial_rows.clear()

    def _monomial_before_call(self, idx, args):
        runner, exps = args[0], args[1]
        self._monomial_before[idx] = runner._monomials.get(exps)

    def _monomial_after_call(self, idx, args, out):
        runner, exps = args[0], args[1]
        before = self._monomial_before.pop(idx)
        # a hit returns from the cache and leaves its entry as it was
        if before is not None and runner._monomials.get(exps) is before:
            self.counts["verify.monomial_hits"] += 1
        # kept, not only its id, so that the id is not reused within the check
        self._monomial_rows[id(out.coeffs)] = out.coeffs

    def _rank_before(self, idx, args):
        rows = args[0]
        if not rows:
            return  # no rows, no kind and no work
        if self.count_cyclo:
            for row in rows:
                self.max_bits = max(self.max_bits, _coord_bits(row))
        # q-expansion matrices are made of monomial series; ideal vectors are not
        qexp = all(id(row) in self._monomial_rows for row in rows)
        self.rank_of[idx] = ("qexp" if qexp else "ideal", len(rows), len(rows[0]), 0)

    def _rank_after(self, idx, args, rank):
        if idx in self.rank_of:
            kind, nrows, ncols, _ = self.rank_of[idx]
            self.rank_of[idx] = (kind, nrows, ncols, rank)

    def _expand_before(self, idx, args):
        self.counts["hilbert.terms"] += args[1] + 1

    def _install_cyclo(self, CycloNum):
        tally = self.cyclo

        def counted(fn, slot):
            def wrapper(*args):
                tally[slot] += 1
                return fn(*args)
            return wrapper

        mul = counted(CycloNum.__dict__["__mul__"], 0)
        add = counted(CycloNum.__dict__["__add__"], 1)
        self._patch(CycloNum, "__mul__", mul)
        self._patch(CycloNum, "__rmul__", mul)
        self._patch(CycloNum, "__add__", add)
        self._patch(CycloNum, "__radd__", add)
        self._patch(CycloNum, "__sub__", counted(CycloNum.__dict__["__sub__"], 1))
        self._patch(CycloNum, "invert", counted(CycloNum.__dict__["invert"], 2))

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[int]:
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since construction."""
        names = self.names
        dur = [e - s for s, e in zip(self.start, self.end)]
        self_ns = self.self_times()
        calls: Counter = Counter(names)
        total: Counter = Counter()
        own: Counter = Counter()
        for n, d, s in zip(names, dur, self_ns):
            total[n] += d
            own[n] += s
        m: dict[str, float] = {}
        m["catalog.evaluators_built"] = calls["catalog.evaluator"]
        m["catalog.lookup_calls"] = calls["catalog.lookup_form"]
        m["exprs.series_calls"] = calls["exprs.series"]
        m["exprs.series_self_s"] = own["exprs.series"] / 1e9
        m["constructors.calls"] = calls["constructors.call"]
        m["constructors.self_s"] = own["constructors.call"] / 1e9
        m["constructors.coeffs"] = self.counts["constructors.coeffs"]
        m["constructors.repeat_ratio"] = (
            calls["constructors.call"] / len(self.ctor_keys) if self.ctor_keys else 0.0)
        m["qseries.mul_calls"] = calls["qseries.mul"]
        m["qseries.mul_self_s"] = own["qseries.mul"] / 1e9
        m["qseries.mul_coeff_pairs"] = self.counts["qseries.mul_coeff_pairs"]
        m["qseries.pow_calls"] = calls["qseries.pow"]
        m["qseries.render_s"] = total["qseries.render"] / 1e9
        m["verify.monomial_calls"] = calls["verify.monomial"]
        m["verify.monomial_hit_ratio"] = (
            self.counts["verify.monomial_hits"] / calls["verify.monomial"]
            if calls["verify.monomial"] else 0.0)
        m["verify.monomial_self_s"] = own["verify.monomial"] / 1e9
        rank_rows = rank_sum = 0
        for kind in RANK_KINDS:
            m[f"verify.rank_calls.{kind}"] = 0
            m[f"verify.rank_s.{kind}"] = 0.0
            m[f"verify.rank_cells.{kind}"] = 0
        for idx, (kind, nrows, ncols, rank) in self.rank_of.items():
            m[f"verify.rank_calls.{kind}"] += 1
            m[f"verify.rank_s.{kind}"] += dur[idx] / 1e9
            m[f"verify.rank_cells.{kind}"] += nrows * ncols
            rank_rows += nrows
            rank_sum += rank
        m["verify.rank_yield"] = rank_sum / rank_rows if rank_rows else 0.0
        m["verify.relation_eval_s"] = total["verify.relation_eval"] / 1e9
        for kind in CHECK_KINDS:
            m[f"verify.check_s.{kind}"] = total[f"verify.check.{kind}"] / 1e9
        m["hilbert.expand_s"] = total["hilbert.expand"] / 1e9
        m["hilbert.terms"] = self.counts["hilbert.terms"]
        if self.count_cyclo:
            m["cyclo.mul_calls"], m["cyclo.add_calls"], m["cyclo.invert_calls"] = self.cyclo
            m["cyclo.max_coord_bits"] = self.max_bits
        return m

    def dump(self, path):
        """Write the spans as gzipped JSON: names plus [name, start, end, parent] rows."""
        index = {n: i for i, n in enumerate(sorted(set(self.names)))}
        origin = self.start[0] if self.start else 0
        rows = [[index[n], s - origin, e - origin, p]
                for n, s, e, p in zip(self.names, self.start, self.end, self.parent)]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": sorted(index, key=index.get), "unit": "ns",
                       "columns": ["name", "start", "end", "parent"], "spans": rows}, fh)

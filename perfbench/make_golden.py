"""Regenerate the golden references under perfbench/golden/ from the program in src/.

    python3 perfbench/make_golden.py

Run it only at a commit whose outputs are trusted: every later run of the
benchmark is judged against these files.  ``verify_all`` takes about 25 s.
"""

from __future__ import annotations

import json

import oracle
import workloads
from worker import import_program

TOP_FORM_PREC = max(workloads.FORM_PRECS) + workloads.FORM_JITTER
SPOT_PRECS = (17, min(workloads.FORM_PRECS) - workloads.FORM_JITTER, 47)


def golden_reports(mf) -> dict:
    catalog = mf.catalog.load_catalog()
    reports = mf.verify.full_report(catalog)
    golden = {f"{r.case}|{r.check}": oracle.report_record(r) for r in reports}
    planned = {op.key for op in workloads.verify_ops(catalog, mf.verify.INTEGRALITY_FORMS, 0)}
    if planned != set(golden):
        raise SystemExit(f"op list and full_report disagree: {sorted(planned ^ set(golden))}")
    return golden


def golden_forms(mf) -> dict:
    catalog = mf.catalog.load_catalog()
    golden = {}
    for name in sorted(catalog.forms):
        series = catalog.lookup_form(name, TOP_FORM_PREC)
        terms = []
        for n, c in enumerate(series.coeffs):
            term = oracle.render_term(c.coords, n, series.ctx.L)
            if term is not None:
                terms.append([n, *term])
        # the reference must reproduce the program's text, also when truncated
        for p in (TOP_FORM_PREC,) + SPOT_PRECS:
            if oracle.assemble(terms, p) != str(catalog.lookup_form(name, p)):
                raise SystemExit(f"{name}: truncated reference differs at prec {p}")
        golden[name] = {"prec": TOP_FORM_PREC, "terms": terms}
    return golden


def main():
    mf = import_program()
    oracle.GOLDEN.mkdir(exist_ok=True)
    for name, build in (("qexp_forms", golden_forms), ("verify_all", golden_reports)):
        entries = sorted(build(mf).items())
        with open(oracle.GOLDEN / f"{name}.json", "w", encoding="utf-8") as fh:
            # one entry per line, so a changed reference shows as a one-line diff
            fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                                          for k, v in entries) + "\n}\n")
        print(f"wrote golden/{name}.json")


if __name__ == "__main__":
    main()

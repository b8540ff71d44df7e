"""Command-line front end.

Commands: qexp, dims, hilbert, verify, catalog.  Exit codes: 0 all
checks pass, 1 verification failure, 2 unknown entity, 3 bad
configuration, 141 standard output closed before all of it was written
(the status a shell reports for a process killed by SIGPIPE).  All
configuration comes from flags and the catalog file; there is no
environment-variable configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import Catalog, load_catalog
from .errors import (CatalogError, MfringError, OutOfTable, PrecisionTooHigh, UnknownForm,
                     UnknownIdentity)
from .verify import (HILBERT_HORIZON2, VerificationReport, full_report, hilbert_mismatches,
                     scheduled_checks)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_UNKNOWN = 2
EXIT_BAD_CONFIG = 3
EXIT_PIPE_CLOSED = 141  # 128 + SIGPIPE, as a shell reports a process that SIGPIPE killed

# the largest --kmax and --horizon: it bounds the weights listed, not what ranking them costs
MAX_WEIGHT_FLAG = 10_000


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load(args) -> Catalog:
    try:
        return load_catalog(args.catalog)
    except MfringError as exc:  # any defect of the file
        raise CliError(f"bad catalog: {exc}", EXIT_BAD_CONFIG)


def _parse_group(catalog: Catalog, text: str):
    try:
        if text == "full":
            return catalog.group_by_key("full", 1)
        parts = text.split(":")
        if parts[0] == "gamma0" and len(parts) == 2:
            return catalog.group_by_key("gamma0", int(parts[1]))
        if parts[0] == "gammaH" and len(parts) == 3:
            gens = parts[2].strip()
            if not (gens.startswith("[") and gens.endswith("]")):
                raise CliError(f"bad subgroup list in {text!r}", EXIT_BAD_CONFIG)
            H = [int(x) for x in gens[1:-1].split(",") if x.strip()]
            return catalog.group_by_key("gammaH", int(parts[1]), H)
    except OutOfTable as exc:
        raise CliError(str(exc), EXIT_UNKNOWN)
    except ValueError:
        pass
    raise CliError(f"cannot parse group {text!r} "
                   "(expected full, gamma0:<N> or gammaH:<N>:[a,b])", EXIT_BAD_CONFIG)


def _require_weight_flag(flag: str, value: int, low: int = 0):
    if not low <= value <= MAX_WEIGHT_FLAG:
        raise CliError(f"{flag} must be between {low} and {MAX_WEIGHT_FLAG}", EXIT_BAD_CONFIG)


def cmd_qexp(args) -> int:
    catalog = _load(args)
    if args.prec < 1:
        raise CliError("--prec must be at least 1", EXIT_BAD_CONFIG)
    name = args.name
    try:
        series = catalog.lookup_form(name, args.prec)
    except PrecisionTooHigh as exc:
        raise CliError(str(exc), EXIT_BAD_CONFIG)
    except CatalogError as exc:
        raise CliError(f"malformed series {name!r}: {exc}", EXIT_BAD_CONFIG)
    except MfringError as exc:
        raise CliError(f"unknown series {name!r}: {exc}", EXIT_UNKNOWN)
    if args.output == "json":
        print(json.dumps({"name": name, "prec": args.prec, "series": str(series)}))
    else:
        print(series)
    return EXIT_OK


def cmd_dims(args) -> int:
    catalog = _load(args)
    _require_weight_flag("--kmax", args.kmax)
    group = _parse_group(catalog, args.group)
    rows = []
    for k in range(0, args.kmax + 1):
        try:
            rows.append((k, catalog.dim2(group.label, 2 * k)))
        except OutOfTable:
            continue
    if args.output == "json":
        print(json.dumps({"group": args.group, "dims": rows}))
    else:
        for k, d in rows:
            print(f"k={k}: {d}")
    return EXIT_OK


def cmd_hilbert(args) -> int:
    catalog = _load(args)
    _require_weight_flag("--horizon", args.horizon)
    label = args.case
    if label not in catalog.cases:
        raise CliError(f"unknown case {label!r}", EXIT_UNKNOWN)
    case = catalog.cases[label]
    if case.presentation is None or case.presentation.hilbert_num is None:
        raise CliError(f"case {label!r} has no claimed Hilbert series", EXIT_UNKNOWN)
    horizon2 = 2 * args.horizon
    hs, coeffs, dims, bad = hilbert_mismatches(catalog, case, horizon2)
    if args.output == "json":
        print(json.dumps({"case": label, "series": hs.render(),
                          "expansion": coeffs, "dims": dims,
                          "mismatched_weights2": [j2 for j2, _, _ in bad]}))
    else:
        print(hs.render())
        print("expansion:", ",".join(str(c) for c in coeffs))
        print("dims:     ", ",".join("-" if d is None else str(d) for d in dims))
        for j2, got, want in bad:
            print(f"MISMATCH at j2={j2}: coefficient {got}, dim {want}")
    return EXIT_VERIFY_FAILED if bad else EXIT_OK


_SELECTORS = {
    "identity": {"identity"},
    "span": {"span"},
    "relations": {"relation"},
    "kernel": {"kernel"},
    "hilbert": {"hilbert"},
    "integrality": {"integrality"},
    "presentation": {"relation", "kernel", "hilbert"},
    "all": {"identity", "span", "relation", "kernel", "hilbert", "integrality"},
}


def cmd_verify(args) -> int:
    catalog = _load(args)
    checks = _SELECTORS[args.selector]
    labels = args.case or None
    for label in labels or ():
        if not any(scheduled_checks(catalog, None, [label])):
            raise CliError(f"unknown case {label!r}", EXIT_UNKNOWN)
        if not any(scheduled_checks(catalog, checks, [label])):
            raise CliError(f"verify {args.selector} does not apply to {label!r}", EXIT_UNKNOWN)
    kmax2 = None
    if args.kmax is not None:
        _require_weight_flag("--kmax", args.kmax, 1)
        kmax2 = 2 * args.kmax
    if args.horizon is not None:
        _require_weight_flag("--horizon", args.horizon)
    horizon2 = 2 * args.horizon if args.horizon is not None else HILBERT_HORIZON2
    reports = full_report(catalog, checks=checks, cases=labels, kmax2=kmax2, horizon2=horizon2)
    failed = False
    for r in reports:
        failed = failed or r.status == "fail"
        if args.output == "json":
            print(r.to_json())
        else:
            print(_pretty(r))
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _half(j2: int) -> str:
    return str(j2 // 2) if j2 % 2 == 0 else f"{j2}/2"


def _pretty(r: VerificationReport) -> str:
    head = f"[{r.status.upper():7s}] {r.case:12s} {r.check:11s} " \
           f"weights {_half(r.k_range[0])}..{_half(r.k_range[1])} prec {r.precision} " \
           f"({r.elapsed_ms} ms)"
    if r.status == "pass":
        return head
    return head + "  " + json.dumps(r.details)


def cmd_catalog_list(args) -> int:
    catalog = _load(args)
    print("cases:")
    for label, case in sorted(catalog.cases.items()):
        bits = []
        if case.span_gens:
            bits.append(f"span({len(case.span_gens)} gens, kmax2={case.span_kmax2})")
        if case.presentation:
            pres = case.presentation
            if pres.relations_unknown:
                bits.append("relations unknown")
            elif pres.relations:
                bits.append(f"relations({len(pres.relations)})")
            if pres.hilbert_num is not None:
                bits.append("hilbert")
        print(f"  {label:12s} group={case.group:8s} L={case.L:<3d} " + ", ".join(bits))
    print("identities:", ", ".join(sorted(catalog.identities)))
    print("forms:", ", ".join(sorted(catalog.forms)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfring",
        description="Exact q-expansions and machine verification of graded rings "
                    "of modular forms.",
    )
    parser.add_argument("--catalog", default=None, help="alternative catalog JSON path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qexp", help="print a q-expansion")
    p.add_argument("name")
    p.add_argument("--prec", type=int, default=10)
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_qexp)

    p = sub.add_parser("dims", help="print dimension table values")
    p.add_argument("--group", required=True, help="full | gamma0:<N> | gammaH:<N>:[a,b]")
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("hilbert", help="print a claimed Hilbert series and its expansion")
    p.add_argument("--case", required=True)
    p.add_argument("--horizon", type=int, default=20)
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("verify", help="run verification checks")
    p.add_argument("selector", choices=sorted(_SELECTORS))
    p.add_argument("--case", action="append", help="restrict to case/identity labels")
    p.add_argument("--kmax", type=int, default=None, help="override top weight (integer)")
    p.add_argument("--horizon", type=int, default=None, help="Hilbert comparison horizon")
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("catalog", help="catalog inspection")
    p.add_argument("action", choices=("list",))
    p.set_defaults(func=cmd_catalog_list)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:  # any coefficient that was computed prints, however many digits it has
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return code
    except BrokenPipeError:  # the reader went away, as `| head` does
        # point stdout at devnull so that the flush at exit writes nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE_CLOSED
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (UnknownForm, UnknownIdentity, OutOfTable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except MfringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())

"""One pass over an op list, in an interpreter of its own.

    python3 -I perfbench/worker.py --mode plain|traced|counting [--spans PATH] < ops.json

``run.py`` starts one worker per pass.  The program keeps caches at module
level (``load_catalog``, character tables, Bernoulli numbers, cyclotomic
contexts), so a second pass in the same interpreter would find them warm and
run faster than any fresh invocation of the program does.

The ops arrive on standard input as a JSON list of ``[kind, name, prec]``.
The worker prints one JSON line: each op's latency and span, the speed
samples taken through the pass (``speed.Sampler``), a SHA-256 of each
output (or its error), the worker's peak RSS, the
sizes of the program's caches before and after the pass, and, in the
``traced`` and ``counting`` modes, the per-layer metrics.  Each output is
hashed and dropped as soon as its op returns, so the peak RSS is that of the
program and not of outputs the harness kept.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CHECK_FUNCS, Op  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run or found itself inconsistent."""


def import_program():
    """Import mfring from this checkout's src/, never from an installed copy."""
    if not (SRC / "mfring" / "__init__.py").is_file():
        raise BenchError(f"no mfring package under {SRC}")
    sys.path.insert(0, str(SRC))
    import mfring  # noqa: F401
    from mfring import catalog, cyclo, exprs, hilbert, qseries, verify

    if Path(mfring.__file__).resolve().parent != SRC / "mfring":
        raise BenchError(f"imported mfring from {mfring.__file__}, not {SRC}")
    return types.SimpleNamespace(catalog=catalog, cyclo=cyclo, exprs=exprs,
                                 hilbert=hilbert, qseries=qseries, verify=verify)


def make_call(mf):
    """The program call for an op: a verify check, or ``mfring qexp``'s lookup and render."""
    catalog = mf.catalog.load_catalog()

    def call(op: Op):
        if op.kind == "qexp":
            return str(catalog.lookup_form(op.name, op.prec))
        # looked up per call so that a traced pass sees the patched functions
        return getattr(mf.verify, CHECK_FUNCS[op.kind])(catalog, op.name)
    return call


def digest(op: Op, out) -> str:
    """SHA-256 of an output in the form the oracle compares."""
    return oracle.digest(op.kind, out if op.kind == "qexp" else oracle.report_record(out))


def program_state() -> dict[str, int]:
    """Entries in each module-level cache of the program, by module and name."""
    state = {}
    for modname, module in sorted(sys.modules.items()):
        if not modname.startswith("mfring."):
            continue
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) == modname and hasattr(obj, "cache_info"):
                state[f"{modname}.{name}"] = obj.cache_info().currsize
            elif name.endswith("_cache") and isinstance(obj, (list, dict)):
                state[f"{modname}.{name}"] = len(obj)
    return state


def run_ops(ops, call, clock) -> dict:
    """Call each op in turn; record its span on `clock` (ns) and its output digest or error."""
    latencies, spans, outputs = [], [], []
    for op in ops:
        gc.collect()  # no op pays for garbage an earlier one left behind
        t0 = clock()
        try:
            out = call(op)
        except Exception as exc:  # a failed op is counted, the pass goes on
            t1 = clock()
            outputs.append([None, f"{type(exc).__name__}: {exc}"])
        else:
            t1 = clock()
            outputs.append([digest(op, out), None])
            del out
        latencies.append((t1 - t0) / 1e9)
        spans.append((t0 / 1e9, t1 / 1e9))
    return {"latencies": latencies, "spans": spans, "outputs": outputs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("plain", "traced", "counting"), default="plain")
    parser.add_argument("--spans", help="where a traced pass writes its spans")
    args = parser.parse_args(argv)
    ops = [Op(*op) for op in json.load(sys.stdin)]

    mf = import_program()
    call = make_call(mf)
    before = program_state()
    metrics = None
    with speed.Sampler() as sampler:
        if args.mode == "plain":
            record = run_ops(ops, call, sampler.clock)
        else:
            with Tracer(mf, count_cyclo=args.mode == "counting", clock=sampler.clock) as tracer:
                record = run_ops(ops, tracer.root(call), sampler.clock)
    if args.mode != "plain":
        metrics = tracer.metrics()
        if args.spans:
            tracer.dump(args.spans)
    record.update({
        "samples": sampler.samples,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "state_before": before,
        "state_after": program_state(),
        "metrics": metrics,
    })
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

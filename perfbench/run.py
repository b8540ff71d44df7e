"""mfring benchmark: seeded workloads, exactness checks, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` makes one untraced pass, one traced pass and two counting passes
of the same op list and reports the per-layer metrics (see README.md).
Every pass runs in a fresh interpreter (``worker.py``), so no pass finds the
program's caches as an earlier pass left them.
The last line of standard output is the result object; the line before it
stamps the environment.  Full results and the span trace are written under
``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import speed
import workloads
from tracing import COUNT_METRICS, CYCLO_METRICS
from worker import BenchError, import_program
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 11
MAX_PASSES = 50
TRACE_BUDGET_S = 140  # a run must end within 180 s; traced runs make up to four passes
WORKER_TIMEOUT_S = 170

PROBE = """
import json, sys, time
sys.path[:0] = sys.argv[1:3]
t0 = time.perf_counter()
import mfring, mfring.cli
t1 = time.perf_counter()
catalog = mfring.load_catalog()
t2 = time.perf_counter()
if not catalog.cases:
    raise SystemExit("catalog has no cases")
import speed
ref_s, calls = speed.sample(0.01)
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "file": mfring.__file__,
                  "slowdown": speed.slowdown(ref_s, calls)}))
"""


def setup_probes(n: int) -> list[dict]:
    """Import mfring and its cli, and load the catalog, in fresh interpreters.

    The first run is a warm-up that writes bytecode and is dropped.
    """
    out = []
    for i in range(n + 1):
        proc = subprocess.run([sys.executable, "-I", "-c", PROBE, str(SRC), str(BENCH)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(rec["file"]).resolve().parent != SRC / "mfring":
            raise BenchError(f"setup probe imported {rec['file']}")
        if i:
            out.append(rec)
    return out


def make_ops(workload: str, seed: int, mf) -> list:
    if workload == "verify_all":
        catalog = mf.catalog.load_catalog()
        return workloads.verify_ops(catalog, mf.verify.INTEGRALITY_FORMS, seed)
    if workload == "qexp_forms":
        return workloads.form_ops(mf.catalog.load_catalog().forms, seed)
    return workloads.constructor_ops(seed)


@dataclass
class Pass:
    """One closed-loop pass, as its worker reported it (see worker.py)."""

    latencies: list[float]
    spans: list  # per op: (start, end) on the worker's clock, in seconds
    outputs: list  # per op: [sha256 of the output, None] or [None, error]
    samples: list  # through the pass: (clock, reference s, calls)
    rss_mb: float
    state_before: dict[str, int]
    state_after: dict[str, int]
    metrics: dict | None

    @property
    def wall(self) -> float:
        """Seconds spent in the ops themselves."""
        return sum(self.latencies)

    @property
    def slowdown(self) -> float:
        """Slowdown over the whole pass, sampled at even intervals."""
        return speed.slowdown(sum(s[1] for s in self.samples), sum(s[2] for s in self.samples))

    def normalized_latencies(self, pad_s: float = 0.25) -> list[float]:
        """Each latency divided by the slowdown sampled while it ran, or within `pad_s` of it.

        The pad gives an op shorter than the sampling period a few samples;
        it widens until it reaches at least one.
        """
        out = []
        for lat, (t0, t1) in zip(self.latencies, self.spans):
            pad, near = pad_s, []
            while not near:
                near = [s for s in self.samples if t0 - pad <= s[0] <= t1 + pad]
                pad *= 2
            out.append(lat / speed.slowdown(sum(s[1] for s in near), sum(s[2] for s in near)))
        return out


def run_pass(ops, mode: str = "plain", spans: Path | None = None) -> Pass:
    """Run the ops once in a fresh worker interpreter and wait for it to end."""
    cmd = [sys.executable, "-I", str(BENCH / "worker.py"), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, input=json.dumps([[op.kind, op.name, op.prec] for op in ops]),
                          cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass failed: {proc.stderr.strip()[-500:]}")
    return Pass(**json.loads(proc.stdout.strip().splitlines()[-1]))


def check_outputs(ops, passes_outputs, expected) -> tuple[int, list]:
    """Count failed ops over all passes; return (failed, first few failure notes).

    `expected` maps op key -> digest of the reference output (None: no reference).
    """
    failed, notes = 0, []
    for outputs in passes_outputs:
        for op, (got, error) in zip(ops, outputs):
            if error is not None:
                ok, why = False, error
            else:
                want = expected.get(op.key)
                ok, why = want is not None and got == want, "differs from reference"
            if not ok:
                failed += 1
                if len(notes) < 5:
                    notes.append({"op": op.key, "why": why})
    return failed, notes


def quantile(values, q: int, band: int = 5) -> float:
    """The q-th percentile, smoothed: mean of the values ranked within `band` points of it.

    Per-op latencies cluster, with gaps between clusters; a plain order
    statistic jumps across a gap when two ops swap places.
    """
    ranked = sorted(values)
    n = len(ranked)
    lo = max(0, round((q - band) / 100 * (n - 1)))
    hi = min(n - 1, round((q + band) / 100 * (n - 1)))
    return statistics.fmean(ranked[lo:hi + 1])


def environment(workload: str, seed: int, n_ops: int, trace: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "mfring").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_rev": git_revision(),
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "ops": n_ops,
        "trace": trace,
    }


def git_revision() -> str | None:
    """HEAD of the checkout, or None where it is not a git work tree."""
    # git looks for a repository no higher than the checkout's parent
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def declared_metrics(trace: int) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def end_to_end_values(probes, passes) -> dict[str, float]:
    """End-to-end metrics, every time divided by the slowdown measured while it ran."""
    per_op = [statistics.median(lats)
              for lats in zip(*(p.normalized_latencies() for p in passes))]
    lat_ms = [x * 1000 for x in per_op]
    return {
        "setup_s": statistics.median((p["import_s"] + p["load_s"]) / p["slowdown"]
                                     for p in probes),
        "wall_s": statistics.median(p.wall / p.slowdown for p in passes),
        "req_p50_ms": quantile(lat_ms, 50),
        "req_p90_ms": quantile(lat_ms, 90),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }


def measure(ops, seconds) -> list[Pass]:
    """Untraced passes, each in a fresh worker, while another fits in the window (at least one)."""
    passes = []
    t_begin = time.perf_counter()
    while True:
        passes.append(run_pass(ops))
        elapsed = time.perf_counter() - t_begin
        if len(passes) >= MAX_PASSES or elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def count_mismatches(timed: dict, counted: list[dict]) -> list[str]:
    """Count metrics that differ between passes of one op list.

    Every count in COUNT_METRICS must be the same in the traced pass and in
    each counting pass, and the ``cyclo.*`` counts the same in every counting pass.
    """
    mismatched = [name for name in COUNT_METRICS if any(c[name] != timed[name] for c in counted)]
    mismatched += [name for name in CYCLO_METRICS
                   if any(c[name] != counted[0][name] for c in counted)]
    return mismatched


def traced_passes(ops, spans: Path, deadline: float, units: dict[str, str]):
    """Untraced, traced and counting passes; returns per-layer metrics and checks.

    Times (unit "s") are divided by the traced pass's slowdown.  The second
    counting pass, which re-checks the cyclo counts, is skipped when it would
    not end before `deadline` (a perf_counter value).
    """
    plain = run_pass(ops)
    traced = run_pass(ops, "traced", spans)
    counted = []
    while len(counted) < 2:
        t0 = time.perf_counter()
        counted.append(run_pass(ops, "counting"))
        if time.perf_counter() + 1.5 * (time.perf_counter() - t0) > deadline:
            break
    mismatched = count_mismatches(traced.metrics, [c.metrics for c in counted])
    metrics = {name: value / traced.slowdown if units.get(name) == "s" else value
               for name, value in traced.metrics.items()}
    for name in CYCLO_METRICS:
        metrics[name] = counted[0].metrics[name]
    metrics["trace.overhead_ratio"] = ((traced.wall / traced.slowdown)
                                       / (plain.wall / plain.slowdown))
    info = {"untraced_s": plain.wall, "traced_s": traced.wall,
            "slowdowns": [plain.slowdown, traced.slowdown], "counting_passes": len(counted)}
    outputs = [p.outputs for p in (plain, traced, *counted)]
    return metrics, info, outputs, mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    t_start = time.perf_counter()

    try:
        mf = import_program()
        declared = declared_metrics(args.trace)
        probes = setup_probes(SETUP_PROBES)
        ops = make_ops(args.workload, args.seed, mf)
        OUT.mkdir(exist_ok=True)
        info: dict = {"setup_probes": probes}
        mismatched: list = []
        if args.trace:
            values, pass_info, passes_outputs, mismatched = traced_passes(
                ops, OUT / f"trace-{args.workload}-s{args.seed}.json.gz",
                deadline=t_start + TRACE_BUDGET_S, units=declared)
            values["catalog.load_s"] = statistics.median(p["load_s"] / p["slowdown"]
                                                         for p in probes)
            info.update(pass_info)
            info["note"] = ("cyclo.* come from counting-only passes with every CycloNum "
                            "mul/add/sub/invert wrapped; their times are not reported")
            if mismatched:
                info["self_check_failed"] = mismatched
        else:
            passes = measure(ops, args.seconds)
            passes_outputs = [p.outputs for p in passes]
            values = end_to_end_values(probes, passes)
            info.update({"raw_pass_walls_s": [p.wall for p in passes],
                         "pass_slowdowns": [p.slowdown for p in passes],
                         "pass_rss_mb": [p.rss_mb for p in passes]})
    except (BenchError, OSError, ImportError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    expected = oracle.expected_digests(args.workload, ops)
    failed, notes = check_outputs(ops, passes_outputs, expected)
    attempted = len(ops) * len(passes_outputs)
    info.update({"failed_ratio": failed / attempted, "failures": notes})

    if set(values) != set(declared):
        raise BenchError(f"emitted metrics {sorted(set(values) ^ set(declared))} "
                         "do not match BENCHMARK.json")
    result = {
        "correct": failed == 0 and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    env = environment(args.workload, args.seed, len(ops), args.trace)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "info": info, "result": result}, fh, indent=1)
    if mismatched:
        print(f"self-check failed: counts differ between traced passes: {mismatched}",
              file=sys.stderr)
    print(json.dumps({"env": env, "failed_ratio": info["failed_ratio"]}))
    print(json.dumps(result))
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: seeded inputs, the oracle, metric names.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import COUNT_METRICS, CYCLO_METRICS, Tracer  # noqa: E402

MF = worker.import_program()
CALL = worker.make_call(MF)
CATALOG = MF.catalog.load_catalog()


def declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_and_vary_with_seed(workload):
    first, again, other = (run.make_ops(workload, s, MF) for s in (7, 7, 8))
    assert first == again
    assert first != other
    assert len({op.key for op in first}) == len(first)


def test_verify_ops_cover_every_golden_report():
    golden = oracle.load_golden("verify_all")
    ops = run.make_ops("verify_all", 0, MF)
    assert {op.key for op in ops} == set(golden)
    assert golden["13h3|relation"]["status"] == "skipped"


def test_constructor_ops_are_distinct_and_in_range():
    ops = workloads.constructor_ops(3)
    assert len({op.name for op in ops}) == len(ops)
    assert all(workloads.CTOR_PREC[0] <= op.prec <= workloads.CTOR_PREC[1] for op in ops)


def test_constructor_oracle_matches_program_on_every_stratum():
    for stratum, exprs in sorted(workloads.constructor_universe().items()):
        for expr in (exprs[0], exprs[-1]):
            L, coeffs = oracle.constructor_series(expr, 60)
            assert oracle.render_series(coeffs, L) == str(CATALOG.lookup_form(expr, 60)), expr


def _bump_a_coefficient(text: str) -> str:
    """Change one digit of the coefficient of some q^n, n >= 1."""
    j = next(j for j in range(text.index("q"), len(text))
             if text[j].isdigit() and text[j - 1] in " (-")
    return text[:j] + str((int(text[j]) + 1) % 10) + text[j + 1:]


def _digests(ops, outputs):
    return [[worker.digest(op, out), None] for op, out in zip(ops, outputs)]


@pytest.mark.parametrize("workload,seed", [("qexp_forms", 1), ("qexp_constructors", 1)])
def test_oracle_catches_a_corrupted_coefficient(workload, seed):
    ops = [op for op in run.make_ops(workload, seed, MF)
           if not op.name.startswith(("g[", "theta_low", "bqf"))][:3]
    outputs = [CALL(op) for op in ops]
    expected = oracle.expected_digests(workload, ops)
    assert run.check_outputs(ops, [_digests(ops, outputs)], expected) == (0, [])
    bad = list(outputs)
    bad[1] = _bump_a_coefficient(bad[1])
    failed, notes = run.check_outputs(ops, [_digests(ops, bad)], expected)
    assert failed == 1 and notes[0]["op"] == ops[1].key


def test_oracle_catches_a_corrupted_report_field():
    ops = [op for op in run.make_ops("verify_all", 1, MF) if op.kind in ("hilbert", "identity")][:4]
    reports = [CALL(op) for op in ops]
    expected = oracle.expected_digests("verify_all", ops)
    assert run.check_outputs(ops, [_digests(ops, reports)], expected) == (0, [])
    reports[2].details = dict(reports[2].details, corrupted=True)
    reports[3].elapsed_ms += 1000  # timing is not part of the reference
    failed, notes = run.check_outputs(ops, [_digests(ops, reports)], expected)
    assert failed == 1 and notes[0]["op"] == ops[2].key


def test_failed_op_counts_as_failure():
    ops = [workloads.Op("qexp", "E4", 10)]
    expected = oracle.expected_digests("qexp_constructors", ops)
    failed, notes = run.check_outputs(ops, [[[None, "boom"]]], expected)
    assert failed == 1 and notes[0]["why"] == "boom"


def test_each_pass_starts_from_a_fresh_interpreter():
    ops = [workloads.Op("qexp", "alpha7", 12), workloads.Op("qexp", "f[1;rho3]", 20)]
    first, second = run.run_pass(ops), run.run_pass(ops)
    assert first.state_after != first.state_before  # a pass fills the program's caches
    assert second.state_before == first.state_before
    expected = oracle.expected_digests("qexp_forms", ops[:1])
    expected.update(oracle.expected_digests("qexp_constructors", ops[1:]))
    assert run.check_outputs(ops, [first.outputs, second.outputs], expected) == (0, [])


def test_traced_metrics_match_benchmark_json_and_repeat_exactly(tmp_path):
    names = ("2|span", "7|kernel", "7|relation", "7|hilbert", "c2_vop2|identity")
    ops = [op for op in run.make_ops("verify_all", 0, MF) if op.key in names]
    ops += [workloads.Op("qexp", "alpha7", 20), workloads.Op("qexp", "f[1;rho3]", 30)]
    metrics, info, outputs, mismatched = run.traced_passes(
        ops, tmp_path / "trace.json.gz", deadline=float("inf"), units=run.declared_metrics(1))
    assert mismatched == []
    assert info["counting_passes"] == 2
    assert set(metrics) | {"catalog.load_s"} == declared("per_layer")
    qexp, ideal = _rank_matrices(("2", "span"), ("7", "kernel"))
    assert metrics["verify.rank_calls.qexp"] == qexp > 0
    assert metrics["verify.rank_calls.ideal"] == ideal > 0
    assert 0 < metrics["verify.monomial_hit_ratio"] < 1
    assert metrics["cyclo.mul_calls"] > 0 and metrics["qseries.mul_calls"] > 0
    checks = sum(v for k, v in metrics.items() if k.startswith("verify.check_s."))
    assert 0 < checks < info["traced_s"] / info["slowdowns"][1]  # both normalized
    expected = oracle.expected_digests("verify_all", ops[:-2])
    expected.update(oracle.expected_digests("qexp_forms", ops[-2:-1]))
    expected.update(oracle.expected_digests("qexp_constructors", ops[-1:]))
    assert run.check_outputs(ops, outputs, expected) == (0, [])
    assert (tmp_path / "trace.json.gz").stat().st_size > 0


def _rank_matrices(*checks) -> tuple[int, int]:
    """Non-empty q-expansion and relation-ideal matrices the given checks rank, from the catalog."""
    golden = oracle.load_golden("verify_all")
    qexp = ideal = 0
    for label, check in checks:
        case = CATALOG.cases[label]
        w2 = tuple(g.w2 for g in CATALOG.case_gens(case, presentation=check == "kernel"))
        for j2 in golden[f"{label}|{check}"]["details"]["weights2"]:
            qexp += bool(MF.verify.weighted_monomials(w2, j2))
            if check == "kernel":
                ideal += any(MF.verify.weighted_monomials(w2, j2 - rel.w2)
                             for rel in case.presentation.relations if rel.w2 <= j2)
    return qexp, ideal


def test_self_check_reports_counts_that_differ_between_passes():
    timed = {name: 5 for name in COUNT_METRICS}
    counted = dict(timed, **{name: 9 for name in CYCLO_METRICS})
    assert run.count_mismatches(timed, [counted, counted]) == []
    assert run.count_mismatches(timed, [counted, dict(counted, **{"qseries.mul_calls": 6})]) \
        == ["qseries.mul_calls"]
    assert run.count_mismatches(timed, [counted, dict(counted, **{"cyclo.add_calls": 8})]) \
        == ["cyclo.add_calls"]


def test_tracer_restores_the_program():
    before = MF.qseries.QSeries.__dict__["__mul__"], MF.verify.verify_span
    with Tracer(MF, count_cyclo=True):
        assert MF.verify.verify_span is not before[1]
    assert (MF.qseries.QSeries.__dict__["__mul__"], MF.verify.verify_span) == before


def test_end_to_end_values_are_divided_by_the_measured_slowdown():
    probes = [{"import_s": 0.02, "load_s": 0.01, "slowdown": 1.5}] * 3
    lats = [0.01 * i for i in range(1, 30)]
    spans = [(0.1 * i, 0.1 * i + 0.01) for i in range(len(lats))]
    passes = [  # the second pass ran on a machine twice as slow
        run.Pass([x * f for x in lats], spans, [[None, None]] * len(lats),
                 [(0.1 * i, f * speed.NOMINAL_S * 3, 3) for i in range(len(lats))],
                 rss_mb=rss, state_before={}, state_after={}, metrics=None)
        for f, rss in ((1.0, 20.0), (2.0, 22.0))
    ]
    values = run.end_to_end_values(probes, passes)
    assert set(values) == declared("end_to_end")
    assert values["setup_s"] == pytest.approx(0.02)
    assert values["wall_s"] == pytest.approx(sum(lats))
    assert values["req_p50_ms"] == pytest.approx(150)
    assert values["peak_rss_mb"] == pytest.approx(21.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "qexp_forms",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_monomial_hits_are_calls_the_cache_answered():
    case = CATALOG.cases["2"]
    with Tracer(MF) as tracer:
        runner = MF.verify.CaseRunner(CATALOG, case)
        zero = (0,) * len(runner.gens)
        runner.monomial_series(zero, 10)  # a miss that multiplies nothing
        runner.monomial_series(zero, 10)  # answered by the cache
        runner.monomial_series(zero, 12)  # a miss: the cached series is too short
    metrics = tracer.metrics()
    assert metrics["verify.monomial_calls"] == 3
    assert metrics["verify.monomial_hit_ratio"] == pytest.approx(1 / 3)


def test_sampler_clock_stops_while_it_samples(monkeypatch):
    monkeypatch.setattr(speed, "PERIOD_S", 0.01)
    monkeypatch.setattr(speed, "BURST_S", 0.005)  # half the time goes to sampling
    with speed.Sampler() as sampler:
        t0, c0 = time.perf_counter_ns(), sampler.clock()
        while time.perf_counter_ns() - t0 < 300_000_000:
            sum(range(1000))
        raw, seen = time.perf_counter_ns() - t0, sampler.clock() - c0
    assert len(sampler.samples) > 10
    assert seen < 0.8 * raw
    clocks = [s[0] for s in sampler.samples]
    assert clocks == sorted(clocks)

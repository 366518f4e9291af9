"""Tracing economics: what ``repro.obs`` costs, off and on.

The committed performance numbers (``BENCH_solver.json`` and friends)
all run with tracing **off**, so the first claim to audit is that the
disabled path is genuinely free: ``obs.span()`` with no active tracer
is one module-global read returning a shared singleton.  This benchmark
measures that per-call cost directly, then the enabled-path span cost,
then the end-to-end overhead of tracing a real workload — the E11 FACT
grid through the engine, warm, which is the densest span producer in
the stack (one ``engine.compute`` + ``solver.search`` pair per query).

Everything lands in ``BENCH_obs.json`` as measured; the CI gate bounds
``traced_overhead_ratio`` (enabled-mode cost may not creep) and pins
``spans_per_batch`` (the span taxonomy per engine batch is
deterministic — a new or lost span is a structural change, not noise).
The simulator's hot loop gets the same treatment: its disabled-path
calls must return the shared noop singleton, and one seeded exploration
has a pinned ``sim.schedule`` / ``sim.round`` / ``sim.guard_wait``
census.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from repro import obs
from repro.adversaries import (
    agreement_function_of,
    figure5b_adversary,
    k_concurrency_alpha,
    t_resilience_alpha,
)
from repro.analysis import render_mapping
from repro.core import full_affine_task, r_affine
from repro.engine import Engine
from repro.solver import SolveRequest
from repro.tasks.set_consensus import set_consensus_task

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_obs.json"

ROUNDS = 5
DISABLED_CALLS = 200_000
ENABLED_CALLS = 20_000


def _grid():
    affines = [
        full_affine_task(3, 1),
        r_affine(k_concurrency_alpha(3, 1)),
        r_affine(k_concurrency_alpha(3, 2)),
        r_affine(t_resilience_alpha(3, 1)),
        r_affine(agreement_function_of(figure5b_adversary())),
    ]
    return [
        SolveRequest(affine=affine, task=set_consensus_task(3, k))
        for affine in affines
        for k in range(1, 4)
    ]


def _best_of(rounds, stage):
    best = float("inf")
    value = None
    for _ in range(rounds):
        started = time.perf_counter()
        value = stage()
        best = min(best, time.perf_counter() - started)
    return value, best


def bench_obs():
    obs.disable()  # the committed-numbers state; measure it honestly

    # -- per-call cost of span() with tracing off ----------------------
    def run_disabled():
        for _ in range(DISABLED_CALLS):
            with obs.span("bench.noop"):
                pass

    _, disabled_s = _best_of(ROUNDS, run_disabled)
    disabled_ns = 1e9 * disabled_s / DISABLED_CALLS

    # -- per-call cost with a tracer active ----------------------------
    tracer = obs.enable()

    def run_enabled():
        for _ in range(ENABLED_CALLS):
            with obs.span("bench.span"):
                pass
        tracer.drain()

    _, enabled_s = _best_of(ROUNDS, run_enabled)
    enabled_ns = 1e9 * enabled_s / ENABLED_CALLS
    obs.disable()

    # -- end-to-end: the warm E11 grid, untraced vs traced -------------
    grid = _grid()
    engine = Engine()  # jobs=1, NullCache: every run really searches
    baseline = engine.solve_many(grid)  # primes the per-pair setup caches

    def run_untraced():
        return engine.solve_many(grid)

    untraced_results, untraced_s = _best_of(ROUNDS, run_untraced)
    assert untraced_results == baseline

    def run_traced():
        tracer = obs.enable()
        try:
            results = engine.solve_many(grid)
        finally:
            obs.disable()
        return results, tracer.drain()

    (traced_results, spans), traced_s = _best_of(ROUNDS, run_traced)
    assert traced_results == baseline  # tracing never changes answers
    overhead_ratio = traced_s / max(untraced_s, 1e-9)

    # The warm sequential batch has a deterministic span taxonomy:
    # engine.batch + engine.cache.lookup, then one engine.compute +
    # solver.search pair per query (setups are primed, so no
    # solver.setup spans).  Pinned by the CI gate.
    expected_spans = 2 + 2 * len(grid)
    by_name = {}
    for span_obj in spans:
        by_name[span_obj.name] = by_name.get(span_obj.name, 0) + 1
    assert len(spans) == expected_spans, by_name
    assert by_name == {
        "engine.batch": 1,
        "engine.cache.lookup": 1,
        "engine.compute": len(grid),
        "solver.search": len(grid),
    }

    # -- the sim hot loop: disabled fast path + pinned taxonomy --------
    # The simulator wraps every schedule in ``sim.schedule`` and marks
    # round starts / guard resumes inside the event loop, so its hot
    # loop is the densest span call site outside the solver.  With the
    # tracer off those calls must hit the shared-noop fast path; with it
    # on, one exploration has a deterministic span census.
    from repro.adversaries.catalogue import catalogue_by_name
    from repro.sim import HittingSetConsensus, crash_plans_from_adversary, explore

    assert obs.span("sim.schedule") is obs.NOOP_SPAN
    assert obs.span("sim.round") is obs.NOOP_SPAN
    assert obs.span("sim.guard_wait") is obs.NOOP_SPAN

    adversary = catalogue_by_name(3)["1-resilient"]
    protocol = HittingSetConsensus(adversary, 2)
    plans = crash_plans_from_adversary(adversary, seed=0)

    def run_sim():
        return explore(protocol, plans, 2, seed=0)

    sim_report, sim_untraced_s = _best_of(ROUNDS, run_sim)

    def run_sim_traced():
        tracer = obs.enable()
        try:
            report = explore(protocol, plans, 2, seed=0)
        finally:
            obs.disable()
        return report, tracer.drain()

    (sim_traced_report, sim_spans), sim_traced_s = _best_of(
        ROUNDS, run_sim_traced
    )
    assert sim_traced_report == sim_report  # tracing never changes runs
    sim_overhead_ratio = sim_traced_s / max(sim_untraced_s, 1e-9)

    sim_by_name: dict = {}
    for span_obj in sim_spans:
        sim_by_name[span_obj.name] = sim_by_name.get(span_obj.name, 0) + 1
    # Exactly one sim.schedule per executed schedule; round-start and
    # guard-resume markers are deterministic for the seeded exploration.
    assert set(sim_by_name) == {"sim.schedule", "sim.round", "sim.guard_wait"}
    assert sim_by_name["sim.schedule"] == sim_report["schedules"]

    # -- export throughput ---------------------------------------------
    handle, export_path = tempfile.mkstemp(suffix=".jsonl")
    os.close(handle)
    try:
        def run_export():
            return obs.export_jsonl(export_path, spans)

        exported, export_s = _best_of(ROUNDS, run_export)
        assert exported == expected_spans
    finally:
        os.unlink(export_path)
    export_rate = expected_spans / max(export_s, 1e-9)

    report = {
        "workload": {
            "queries": len(grid),
            "rounds": ROUNDS,
            "disabled_calls": DISABLED_CALLS,
            "enabled_calls": ENABLED_CALLS,
        },
        "disabled_span_ns": round(disabled_ns, 1),
        "enabled_span_ns": round(enabled_ns, 1),
        "spans_per_batch": expected_spans,
        "t_warm_untraced_s": round(untraced_s, 6),
        "t_warm_traced_s": round(traced_s, 6),
        "traced_overhead_ratio": round(overhead_ratio, 3),
        "sim": {
            "schedules": sim_report["schedules"],
            "span_sim_schedule": sim_by_name["sim.schedule"],
            "span_sim_round": sim_by_name["sim.round"],
            "span_sim_guard_wait": sim_by_name["sim.guard_wait"],
            "traced_overhead_ratio": round(sim_overhead_ratio, 3),
        },
        "export_spans_per_s": round(export_rate, 0),
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print()
    print(render_mapping("tracing economics:", report))
    print(f"wrote {OUTPUT}")

    # The honesty claims: disabled spans must stay in nanoseconds (the
    # committed numbers depend on it), and enabled-mode tracing of the
    # densest real workload must stay a bounded tax, not a rewrite of
    # the performance story.
    assert disabled_ns < 1000.0
    assert overhead_ratio < 3.0

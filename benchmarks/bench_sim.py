"""Simulator throughput and the differential-oracle agreement gate.

Two claims are committed here.  First, throughput: exploring the whole
:data:`repro.sim.oracle.STANDARD_GRID` — every fault plan x schedule of
every committed (adversary, k) pair — is cheap enough to run on each
CI pass, recorded as ``schedules_per_s`` (absolute, ungated; it tracks
the machine).  Second, the structural facts the CI gate pins exactly:
the grid's shape (cases, schedules, deliveries — the runtime is
deterministic, so the delivery count is a parity metric, not noise) and
the oracle verdict itself: ``oracle_agreement_rate`` must be 1.0 with
zero disagreements.  A simulator/FACT disagreement therefore fails the
benchmark loudly *and* moves a gated field, and the offending schedule
is printed as a replayable artifact pointer.

Everything lands in ``BENCH_sim.json``; see ``tools/bench_gate.py``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro import obs
from repro.analysis import render_mapping
from repro.sim import oracle_params, simulate_params, standard_grid

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_sim.json"

ROUNDS = 3


def _best_of(rounds, stage):
    best = float("inf")
    value = None
    for _ in range(rounds):
        started = time.perf_counter()
        value = stage()
        best = min(best, time.perf_counter() - started)
    return value, best


def bench_sim():
    obs.disable()  # committed numbers run with tracing off
    grid = standard_grid()

    # -- simulator throughput over the whole grid ----------------------
    def run_grid():
        return [simulate_params(*case.payload()) for case in grid]

    reports, grid_s = _best_of(ROUNDS, run_grid)
    schedules_total = sum(report["schedules"] for report in reports)
    deliveries_total = sum(report["deliveries"] for report in reports)
    schedules_per_s = schedules_total / max(grid_s, 1e-9)

    # Determinism audit: a second sweep must be byte-identical.
    again = [simulate_params(*case.payload()) for case in grid]
    assert json.dumps(again, sort_keys=True) == json.dumps(
        reports, sort_keys=True
    )

    # -- the differential oracle over the committed grid ---------------
    def run_oracle():
        return [oracle_params(*case.payload()) for case in grid]

    verdicts, oracle_s = _best_of(1, run_oracle)
    disagreements = [
        case.name
        for case, verdict in zip(grid, verdicts)
        if not verdict["agree"]
    ]
    for case, verdict in zip(grid, verdicts):
        if not verdict["agree"] and verdict["artifact"] is not None:
            print(
                f"DISAGREEMENT {case.name}: replayable schedule "
                f"({len(verdict['artifact']['events'])} events) — "
                "write it out with `repro oracle --artifact-dir`"
            )
    agreement_rate = (len(grid) - len(disagreements)) / len(grid)
    solvable_cases = sum(
        bool(verdict["reference"]["solvable"]) for verdict in verdicts
    )

    report = {
        "workload": {
            "cases": len(grid),
            "solvable_cases": solvable_cases,
            "rounds": ROUNDS,
            "schedules_total": schedules_total,
        },
        "deliveries_total": deliveries_total,
        "schedules_per_s": round(schedules_per_s, 0),
        "t_grid_sim_s": round(grid_s, 6),
        "t_grid_oracle_s": round(oracle_s, 6),
        "oracle_agreement_rate": round(agreement_rate, 3),
        "disagreements": len(disagreements),
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print()
    print(render_mapping("simulator grid:", report))
    print(f"wrote {OUTPUT}")

    # The oracle gate: every committed pair agrees, and the FACT
    # references hold both solvable and unsolvable verdicts.
    assert 0 < solvable_cases < len(grid)
    assert not disagreements, disagreements

"""Solve-kernel economics: the bitset kernel vs the legacy oracle.

The workload is the E11 FACT grid (5 affine tasks x k in 1..3), solved
three ways:

* legacy — one :class:`MapSearch` per query (the differential oracle),
  with the per-affine search structure stripped first, so every round
  pays the whole set-up;
* bitset cold — :class:`BitsetKernel` with the per-``(affine, task)``
  setup cache and the per-affine search structure stripped first, so
  ordering, interning and table compilation are paid inside the
  measurement;
* bitset warm — the same queries with the setup cache primed, which is
  the steady state of every real consumer (the engine's split-retry
  escalations, the service's repeated-query traffic, resume).

Honest accounting: the kernel's win is *not* a faster tree walk alone —
it is that setup (vertex ordering, domain construction, constraint
compilation) happens once per pair instead of once per query, plus the
bit-probe consistency test.  Cold, the kernel roughly breaks even
(setup dominates both engines); warm, the search itself is the only
cost and the speedup is large.  Both numbers land in
``BENCH_solver.json``, as measured, along with the opt-in fc kernel's
figures.  Every query is parity-checked against the oracle (maps *and*
node counts) before any number is recorded.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.adversaries import (
    agreement_function_of,
    figure5b_adversary,
    k_concurrency_alpha,
    t_resilience_alpha,
)
from repro.analysis import render_mapping
from repro.core import full_affine_task, r_affine
from repro.solver import BitsetKernel, ForwardCheckingKernel
from repro.tasks.set_consensus import set_consensus_task
from repro.tasks.solvability import MapSearch

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_solver.json"

ROUNDS = 3


def _grid():
    affines = [
        full_affine_task(3, 1),
        r_affine(k_concurrency_alpha(3, 1)),
        r_affine(k_concurrency_alpha(3, 2)),
        r_affine(t_resilience_alpha(3, 1)),
        r_affine(agreement_function_of(figure5b_adversary())),
    ]
    return [
        (affine, set_consensus_task(3, k))
        for affine in affines
        for k in range(1, 4)
    ]


def _strip_setup(affine, task) -> None:
    """Drop the per-(affine, task) interning cache and the per-affine
    search structure: the cold state."""
    if hasattr(task, "_solver_setup"):
        del task._solver_setup
    if hasattr(affine, "_search_structure"):
        del affine._search_structure


def _best_of(rounds, stage):
    """Best-of-N wall time (and the last value, for parity checks)."""
    best = float("inf")
    value = None
    for _ in range(rounds):
        started = time.perf_counter()
        value = stage()
        best = min(best, time.perf_counter() - started)
    return value, best


def bench_solver():
    grid = _grid()

    # -- legacy oracle: setup + search paid on every query -------------
    legacy_maps, legacy_nodes, legacy_times = [], [], []
    for affine, task in grid:
        def run_legacy():
            _strip_setup(affine, task)
            search = MapSearch(affine, task)
            mapping = search.search()
            return mapping, search.nodes_explored

        (mapping, nodes), elapsed = _best_of(ROUNDS, run_legacy)
        legacy_maps.append(mapping)
        legacy_nodes.append(nodes)
        legacy_times.append(elapsed)

    # -- bitset, cold: interning paid inside the measurement -----------
    cold_times = []
    for affine, task in grid:
        def run_cold():
            _strip_setup(affine, task)
            kernel = BitsetKernel(affine, task)
            return kernel.search(), kernel.nodes_explored

        (mapping, nodes), elapsed = _best_of(ROUNDS, run_cold)
        cold_times.append(elapsed)
        index = len(cold_times) - 1
        assert mapping == legacy_maps[index], grid[index][0].name
        assert nodes == legacy_nodes[index], grid[index][0].name

    # -- bitset, warm: the steady state of every real consumer ---------
    warm_times = []
    for index, (affine, task) in enumerate(grid):
        BitsetKernel(affine, task).search()  # prime the setup cache

        def run_warm():
            kernel = BitsetKernel(affine, task)
            return kernel.search(), kernel.nodes_explored

        (mapping, nodes), elapsed = _best_of(ROUNDS, run_warm)
        warm_times.append(elapsed)
        assert mapping == legacy_maps[index], affine.name
        assert nodes == legacy_nodes[index], affine.name

    # -- fc, warm: verdict/map parity, its own node counts -------------
    fc_times, fc_nodes = [], []
    for index, (affine, task) in enumerate(grid):
        def run_fc():
            kernel = ForwardCheckingKernel(affine, task)
            return kernel.search(), kernel.nodes_explored

        (mapping, nodes), elapsed = _best_of(ROUNDS, run_fc)
        fc_times.append(elapsed)
        fc_nodes.append(nodes)
        assert mapping == legacy_maps[index], affine.name
        assert nodes <= legacy_nodes[index], affine.name

    def _speedups(times):
        return [legacy / max(t, 1e-9) for legacy, t in zip(legacy_times, times)]

    report = {
        "workload": {
            "queries": len(grid),
            "rounds": ROUNDS,
            "solvable": sum(1 for m in legacy_maps if m is not None),
            "search_nodes_total": sum(legacy_nodes),
        },
        "t_legacy_s": round(sum(legacy_times), 4),
        "t_bitset_cold_s": round(sum(cold_times), 4),
        "t_bitset_warm_s": round(sum(warm_times), 4),
        "t_fc_warm_s": round(sum(fc_times), 4),
        # Per-query medians, legacy/kernel: >1 means the kernel is faster.
        "median_speedup_cold": round(
            statistics.median(_speedups(cold_times)), 2
        ),
        "median_speedup_warm": round(
            statistics.median(_speedups(warm_times)), 2
        ),
        "median_speedup_fc_warm": round(
            statistics.median(_speedups(fc_times)), 2
        ),
        "fc_nodes_vs_legacy": round(
            sum(fc_nodes) / max(sum(legacy_nodes), 1), 3
        ),
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print()
    print(render_mapping("solver kernel economics:", report))
    print(f"wrote {OUTPUT}")

    # Parity is asserted above, per query.  The perf claims: warm — the
    # state every consumer actually runs in — must clear the 3x bar on
    # the E11 grid; cold must at least not be a regression disaster.
    assert report["median_speedup_warm"] > 3.0
    assert report["median_speedup_cold"] > 0.5

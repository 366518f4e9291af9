"""Sweep economics: cells/s and resume overhead.

Two measurements around :mod:`repro.sweep`, landing in
``BENCH_landscape.json`` at the repo root for the trajectory gate:

* **throughput** — the ``n3-smoke`` grid end to end (cells per second,
  informational: absolute rates track the CI machine and are not
  gated);
* **resume overhead** — a sweep interrupted after half its cells and
  run again on the same checkpoint directory, versus one uninterrupted
  run: a third run on the complete directory must recompute **zero**
  cells, the artifact must be byte-identical, and the interruption may
  cost only cache-reload overhead;
* **``R_A`` construction** — over the n=3 fair agreement functions,
  Definition 9 folded face by face (``RABuilder.facet_allowed``) versus
  ``RABuilder.build``'s fold of the once-per-``n`` contention table
  (warm): ``ra_speedup_vs_definition`` is the first time over the
  second, and ``ra_facets_total`` the facets both keep;
* **the process pool on paper work** — ``repro sweep --grid
  n4-sampled`` in a fresh checkpoint directory, at ``--jobs 1`` and
  ``--jobs 2`` in alternated rounds, each run a fresh process whose
  artifact must be byte-identical to
  ``examples/landscape_n4_sampled.json``: ``n4_sampled_speedup_jobs2``
  is the median ``--jobs 1`` time over the median ``--jobs 2`` time.  It must exceed 1 wherever there are two
  CPUs to run on; the gate checks it only in the multi-core lane.

Verdict counts are parity-gated: the grid is content-addressed and the
kernels are tree-identical, so any drift in solvable/unsolvable/budget
is a correctness change, not noise.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.adversaries import agreement_function_of, is_fair
from repro.analysis import render_mapping
from repro.analysis.landscape import all_adversaries, alpha_signature
from repro.core.ra import RABuilder, contention_table
from repro.sweep import GRID_PRESETS, SweepDriver
from repro.topology import chr_complex

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_landscape.json"

GRID = GRID_PRESETS["n3-smoke"]
N4_ARTIFACT = REPO_ROOT / "examples" / "landscape_n4_sampled.json"
#: Alternated ``--jobs 1`` / ``--jobs 2`` rounds of the n4-sampled sweep.
N4_ROUNDS = 3


def _timed(stage):
    started = time.perf_counter()
    value = stage()
    return value, time.perf_counter() - started


#: Each ``R_A`` construction is timed this many times; the minimum is kept.
RA_REPEATS = 3


def _ra_construction():
    """Definition 9 face by face vs the contention table, per fair alpha.

    Returns the summed per-alpha minimum times of both and the number
    of facets kept, which must be the same facets both ways.
    """
    chr2 = chr_complex(3, 2)
    alphas = {}
    for adversary in all_adversaries(3):
        if is_fair(adversary):
            alpha = agreement_function_of(adversary)
            alphas.setdefault(alpha_signature(alpha), alpha)
    contention_table(3)

    def definition(alpha):
        builder = RABuilder(alpha)
        return [facet for facet in chr2.facets if builder.facet_allowed(facet)]

    def table(alpha):
        return RABuilder(alpha).build(3)

    def fastest(stage, alpha):
        return min(_timed(lambda: stage(alpha))[1] for _ in range(RA_REPEATS))

    t_definition = t_table = 0.0
    facets = 0
    for alpha in alphas.values():
        kept = definition(alpha)
        assert table(alpha).complex.facets == frozenset(kept)
        t_definition += fastest(definition, alpha)
        t_table += fastest(table, alpha)
        facets += len(kept)
    return t_definition, t_table, facets


def _n4_sampled_sweep(tmp_path, jobs: int, round_index: int) -> float:
    """Seconds for one fresh ``repro sweep --grid n4-sampled`` process."""
    run_dir = tmp_path / f"n4-jobs{jobs}-round{round_index}"
    artifact = run_dir / "landscape.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    command = [
        sys.executable, "-m", "repro", "sweep",
        "--grid", "n4-sampled",
        "--checkpoint-dir", str(run_dir),
        "--jobs", str(jobs),
        "--output", str(artifact),
    ]
    started = time.perf_counter()
    subprocess.run(command, env=env, check=True, capture_output=True)
    elapsed = time.perf_counter() - started
    assert artifact.read_bytes() == N4_ARTIFACT.read_bytes()
    return elapsed


def bench_sweep(tmp_path):
    cells = len(GRID.cells())

    # Warmup: fill the in-process memos (R_A constructions, setcon
    # caches) once, so straight-vs-resumed compares checkpoint
    # mechanics instead of cold-import effects.
    SweepDriver(GRID, tmp_path / "warmup").run()

    # Throughput: one uninterrupted sweep (the reference artifact too).
    straight = SweepDriver(GRID, tmp_path / "straight")
    status, t_straight = _timed(lambda: straight.run())
    assert status["complete"]
    reference = straight.write_artifact(tmp_path / "straight.json")
    summary = status["artifact"]["summary"]

    # Resume: interrupt after half the grid, then run it again.
    half = cells // 2

    def interrupted():
        SweepDriver(GRID, tmp_path / "resumed").run(limit=half)
        return SweepDriver(GRID, tmp_path / "resumed").run()

    resumed_status, t_resumed = _timed(interrupted)
    assert resumed_status["complete"]
    assert resumed_status["resumed"] == half
    resumed_bytes = SweepDriver(GRID, tmp_path / "resumed").write_artifact(
        tmp_path / "resumed.json"
    )
    assert resumed_bytes == reference  # byte-identical, kill or no kill

    # A third pass over a complete checkpoint recomputes nothing.
    replay = SweepDriver(GRID, tmp_path / "resumed").run()
    assert replay["complete"]

    t_definition, t_table, ra_facets = _ra_construction()

    n4_times = {1: [], 2: []}
    for round_index in range(N4_ROUNDS):
        for jobs in (1, 2):
            n4_times[jobs].append(
                _n4_sampled_sweep(tmp_path, jobs, round_index)
            )
    t_n4 = {jobs: statistics.median(times) for jobs, times in n4_times.items()}
    cpu_count = os.cpu_count() or 1

    report = {
        "workload": {
            "grid": GRID.name,
            "grid_cells": cells,
            "adversaries": summary["adversaries"],
        },
        "verdicts": summary["verdicts"],
        "resume": {
            "interrupted_after": half,
            "recomputed_cells": replay["computed"],
        },
        "t_straight_s": round(t_straight, 4),
        "t_resumed_s": round(t_resumed, 4),
        "cells_per_s": round(cells / t_straight, 1),
        "resume_overhead_ratio": round(t_resumed / t_straight, 2),
        "ra_speedup_vs_definition": round(t_definition / t_table, 2),
        "ra_facets_total": ra_facets,
        "cpu_count": cpu_count,
        "t_n4_sampled_jobs1_s": round(t_n4[1], 3),
        "t_n4_sampled_jobs2_s": round(t_n4[2], 3),
        "n4_sampled_speedup_jobs2": round(t_n4[1] / t_n4[2], 2),
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print()
    print(render_mapping("sweep economics:", report))
    print(f"wrote {OUTPUT}")

    # Resuming replays cached cells instead of recomputing them.
    assert report["resume"]["recomputed_cells"] == 0
    if cpu_count >= 2:
        assert report["n4_sampled_speedup_jobs2"] > 1.0

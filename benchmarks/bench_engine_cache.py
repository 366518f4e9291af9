"""Engine economics: cold vs warm cache, in-process vs pooled.

The workload is the expensive half of the reproduction — the complete
n=3 landscape classification (127 adversaries) plus the E11 FACT grid
(5 affine tasks x k in 1..3 solvability searches) — run several ways:

* the default engine path — ``Engine()``: in-process, no cache — the
  baseline every command runs on without options (``t_direct_s``),
* engine, cold persistent cache, ``jobs`` = 1..min(4, cpu_count)
  (the saturation series),
* engine, warm persistent cache, same worker counts.

Every worker count must produce the same entries, solutions and cached
artifacts.  The cold workload takes a tenth of a second in-process,
less than forking workers and shipping ``R_A`` payloads costs, so the
multi-worker ratios are recorded, not asserted; the pool's speed is
measured on real work in ``benchmarks/bench_sweep.py``.

In-process ``lru_cache`` state is cleared, and garbage collected,
before every stage so a "cold" measurement is genuinely cold and no
stage times a collection an earlier stage left pending.  The numbers land in
``BENCH_engine.json`` at the repo root, together with ``cpu_count`` —
on a single-CPU box the multiworker stages are skipped outright and
their metrics recorded as ``null`` (the bench gate reads
null-vs-number as "skipped on this environment", not as a
regression).  The ``saturation`` block always carries the
``speedup_jobs2/3/4`` keys — unmeasured points are ``null``, never
absent, so the gate catches a silently narrowed series.
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

from repro.adversaries import (
    agreement_function_of,
    figure5b_adversary,
    k_concurrency_alpha,
    t_resilience_alpha,
)
from repro.adversaries.setcon import _setcon_of_live_sets
from repro.analysis import render_mapping
from repro.analysis.landscape import classify_all
from repro.core import full_affine_task, r_affine
from repro.engine import ArtifactCache, Engine
from repro.tasks.set_consensus import set_consensus_task

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_engine.json"


def _solve_queries():
    affines = [
        full_affine_task(3, 1),
        r_affine(k_concurrency_alpha(3, 1)),
        r_affine(k_concurrency_alpha(3, 2)),
        r_affine(t_resilience_alpha(3, 1)),
        r_affine(agreement_function_of(figure5b_adversary())),
    ]
    return [
        (affine, set_consensus_task(3, k), None)
        for affine in affines
        for k in range(1, 4)
    ]


def _go_cold():
    """Reset in-process memoization so cold stages measure real work,
    and collect garbage so no stage pays for an earlier stage's: a full
    collection over the live query objects costs more than a whole
    warm stage."""
    _setcon_of_live_sets.cache_clear()
    gc.collect()


def _run_engine(engine, queries):
    entries = classify_all(3, engine=engine)
    solved = engine.solve_many(queries)
    return entries, solved


def _timed(stage):
    started = time.perf_counter()
    value = stage()
    return value, time.perf_counter() - started


def bench_engine_cache(tmp_path):
    queries = _solve_queries()
    # Its own query objects: solver set-ups cache on the task objects,
    # and the cold stages below must not find them warm.
    default_queries = _solve_queries()

    _go_cold()
    (default_entries, default_solved), t_direct = _timed(
        lambda: _run_engine(Engine(), default_queries)
    )

    cpu_count = os.cpu_count() or 1
    worker_counts = tuple(range(1, min(4, cpu_count) + 1))
    timings = {}
    entries_by_stage = {}
    for jobs in worker_counts:
        cache_dir = tmp_path / f"cache-jobs{jobs}"
        _go_cold()
        engine = Engine(jobs=jobs, cache=ArtifactCache(cache_dir))
        (entries, solved), t_cold = _timed(
            lambda: _run_engine(engine, queries)
        )
        engine.close()
        _go_cold()
        warm_engine = Engine(jobs=jobs, cache=ArtifactCache(cache_dir))
        (warm_entries, warm_solved), t_warm = _timed(
            lambda: _run_engine(warm_engine, queries)
        )
        warm_engine.close()
        assert entries == default_entries == warm_entries
        assert solved == default_solved
        assert warm_solved == solved
        timings[jobs] = (t_cold, t_warm)
        entries_by_stage[jobs] = len(ArtifactCache(cache_dir))

    t_cold_1, t_warm_1 = timings[1]
    t_cold_2, t_warm_2 = timings.get(2, (None, None))
    saturation = {
        f"speedup_jobs{jobs}": (
            round(t_cold_1 / timings[jobs][0], 2) if jobs in timings else None
        )
        for jobs in (2, 3, 4)
    }
    report = {
        "workload": {
            "adversaries_classified": len(default_entries),
            "solvability_queries": len(queries),
        },
        "cpu_count": cpu_count,
        "t_direct_s": round(t_direct, 4),
        "t_cold_jobs1_s": round(t_cold_1, 4),
        "t_warm_jobs1_s": round(t_warm_1, 4),
        "t_cold_jobs2_s": None if t_cold_2 is None else round(t_cold_2, 4),
        "t_warm_jobs2_s": None if t_warm_2 is None else round(t_warm_2, 4),
        "speedup_warm_cache": round(t_cold_1 / t_warm_1, 2),
        "speedup_multiworker_cold": (
            None if t_cold_2 is None else round(t_cold_1 / t_cold_2, 2)
        ),
        "saturation": saturation,
        "artifacts_cached": entries_by_stage[1],
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print()
    print(render_mapping("engine economics:", report))
    print(f"wrote {OUTPUT}")

    # A warm cache replays pure reads; anything under 5x means the
    # cache (or the codec) regressed badly.
    assert report["speedup_warm_cache"] >= 5.0
    # Every worker count computes and caches the same artifacts.
    assert len(set(entries_by_stage.values())) == 1
    if cpu_count < 2:
        assert report["speedup_multiworker_cold"] is None
        assert all(value is None for value in report["saturation"].values())

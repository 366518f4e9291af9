"""Worker-pool economics: affinity, dispatch overhead, concurrency.

Three measurements, all machine-independent by construction, land in
``BENCH_workers.json``:

* **Affinity routing** — 20 solve jobs over 2 distinct solver setups,
  submitted one at a time against an idle pool, must pin deterministic
  ally: every job after each setup's first lands on the worker whose
  setup is warm (hit rate exactly ``(jobs - setups) / jobs``).
* **Dispatch overhead** — a batch of sleep jobs through a one-worker
  pool versus running the same specs in-process.  The sleep time
  dominates, so the ratio isolates submit/route/ship/collect overhead;
  it must stay a small constant factor regardless of the host.
* **Concurrency** — the same sleep batch through one worker versus
  two.  Sleeping is not CPU-bound, so even a single-core box must show
  real overlap (speedup near the worker count); this is the pool's
  scheduling working, not the machine's parallelism.

The pool's failure counters ride along as parity metrics: a healthy
benchmark run restarts zero workers and re-dispatches zero jobs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.analysis import render_mapping
from repro.engine import JobSpec
from repro.engine.jobs import JOB_KINDS
from repro.solver import SolveRequest
from repro.tasks.set_consensus import set_consensus_task
from repro.workers import WorkerPool

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_workers.json"

AFFINITY_JOBS = 20
SLEEP_JOBS = 20
SLEEP_SECONDS = 0.02


def _affinity_specs(ra_1of, ra_1res):
    task = set_consensus_task(3, 2)
    setups = [ra_1of, ra_1res]
    return [
        JobSpec(
            "solve",
            (SolveRequest(affine=setups[index % len(setups)], task=task),),
        )
        for index in range(AFFINITY_JOBS)
    ], len(setups)


def _sleep(payload: tuple):
    seconds, token = payload
    time.sleep(seconds)
    return token


def _sleep_specs():
    return [
        JobSpec("sleep", (SLEEP_SECONDS, f"job-{index}"))
        for index in range(SLEEP_JOBS)
    ]


def _timed(stage):
    started = time.perf_counter()
    value = stage()
    return value, time.perf_counter() - started


def bench_workers(ra_1of, ra_1res, monkeypatch):
    # The sleep kind exists for this bench only; the pools below fork
    # from this process and see it.
    monkeypatch.setitem(JOB_KINDS, "sleep", _sleep)
    # ------------------------------------------------------------------
    # Affinity: one-at-a-time submissions against an idle 2-worker pool
    # pin deterministically — no spill is ever forced, so every job
    # after a setup's first submission is a hit.
    specs, distinct_setups = _affinity_specs(ra_1of, ra_1res)
    with WorkerPool(2) as pool:
        for index, spec in enumerate(specs):
            pool.submit(spec, index=index)
            pool.drain()
        affinity_stats = pool.stats()

    # ------------------------------------------------------------------
    # Dispatch overhead: sleep-dominated batch, pool vs in-process.
    sleep_specs = _sleep_specs()
    _, t_inprocess = _timed(
        lambda: [spec.run() for spec in sleep_specs]
    )
    with WorkerPool(1) as pool:
        results_1, t_pool_1 = _timed(
            lambda: pool.run_batch(list(enumerate(sleep_specs)))
        )
    assert all(result.ok for result in results_1)

    # ------------------------------------------------------------------
    # Concurrency: the same batch through two workers must overlap.
    with WorkerPool(2) as pool:
        results_2, t_pool_2 = _timed(
            lambda: pool.run_batch(list(enumerate(sleep_specs)))
        )
    assert all(result.ok for result in results_2)
    assert [r.value for r in results_2] == [r.value for r in results_1]

    report = {
        "workload": {
            "affinity_jobs": AFFINITY_JOBS,
            "distinct_setups": distinct_setups,
            "sleep_jobs": SLEEP_JOBS,
        },
        "affinity": {
            "routed": affinity_stats["affinity_routed"],
            "hits": affinity_stats["affinity_hits"],
            "hit_rate": round(affinity_stats["affinity_hit_rate"], 4),
        },
        "failures": {
            "worker_restarts": affinity_stats["worker_restarts"],
            "redispatched": affinity_stats["redispatched"],
            "codec_errors": affinity_stats["codec_errors"],
        },
        "t_inprocess_s": round(t_inprocess, 4),
        "t_pool_jobs1_s": round(t_pool_1, 4),
        "t_pool_jobs2_s": round(t_pool_2, 4),
        "dispatch_overhead_ratio": round(t_pool_1 / t_inprocess, 3),
        "saturation": {
            "speedup_jobs2": round(t_pool_1 / t_pool_2, 2),
        },
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print()
    print(render_mapping("worker pool economics:", report))
    print(f"wrote {OUTPUT}")

    # Deterministic by construction: every post-first submission pins.
    expected_rate = (AFFINITY_JOBS - distinct_setups) / AFFINITY_JOBS
    assert report["affinity"]["hits"] == AFFINITY_JOBS - distinct_setups
    assert abs(report["affinity"]["hit_rate"] - expected_rate) < 1e-9
    assert report["failures"]["worker_restarts"] == 0
    assert report["failures"]["redispatched"] == 0
    assert report["failures"]["codec_errors"] == 0
    # Sleep time dominates: dispatch overhead is a small constant.
    assert report["dispatch_overhead_ratio"] < 3.0
    # Two workers overlap sleep-bound jobs even on one core.
    assert report["saturation"]["speedup_jobs2"] > 1.2

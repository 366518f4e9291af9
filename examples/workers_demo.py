"""End-to-end worker-pool demo — and the CI workers smoke test.

Drives the persistent :class:`repro.workers.WorkerPool` through its
whole lifecycle against real workloads:

* a typed batch of solve/chr jobs through two warm workers, with the
  values verified against in-process execution;
* affinity routing pinning repeat solver setups to one warm worker;
* crash recovery: a SIGKILLed worker is restarted and its in-flight
  job re-dispatched exactly once, with no other job disturbed;
* clean close — no worker process survives the pool.

Run from the repository root::

    PYTHONPATH=src python examples/workers_demo.py

Exits non-zero on any failure, so CI can use it as a smoke gate.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.adversaries import k_concurrency_alpha  # noqa: E402
from repro.core import r_affine  # noqa: E402
from repro.engine import JobSpec  # noqa: E402
from repro.engine.jobs import JOB_KINDS  # noqa: E402
from repro.solver import SolveRequest  # noqa: E402
from repro.tasks.set_consensus import set_consensus_task  # noqa: E402
from repro.workers import WorkerPool  # noqa: E402


def check(condition: bool, label: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"[workers-demo] {status}: {label}")
    if not condition:
        raise SystemExit(1)


def _sleep(payload: tuple):
    seconds, token = payload
    time.sleep(seconds)
    return token


def main() -> int:
    # A slow job kind for the crash-recovery check, registered for this
    # demo only; the pool's workers fork from this process and see it.
    JOB_KINDS["sleep"] = _sleep
    affine = r_affine(k_concurrency_alpha(3, 1))
    task = set_consensus_task(3, 2)

    # ------------------------------------------------------------------
    # Typed batch through a warm pool, verified against in-process runs.
    specs = [
        JobSpec("solve", (SolveRequest(affine=affine, task=task),)),
        JobSpec("chr", (3, 1)),
        JobSpec("chr", (2, 2)),
    ]
    with WorkerPool(2) as pool:
        results = pool.run_batch(list(enumerate(specs)))
        check(
            all(result.ok for result in results)
            and [result.value for result in results]
            == [spec.run() for spec in specs],
            "pooled batch matches in-process execution",
        )

        # --------------------------------------------------------------
        # Affinity: repeat setups pin to the warm worker.
        for _ in range(3):
            pool.submit(
                JobSpec("solve", (SolveRequest(affine=affine, task=task),))
            )
            pool.drain()
        stats = pool.stats()
        check(
            stats["affinity_hits"] >= 3,
            f"repeat setups pinned warm (hits={stats['affinity_hits']})",
        )

        # --------------------------------------------------------------
        # Crash recovery: SIGKILL the worker mid-job; the pool restarts
        # it and re-dispatches the job exactly once.
        ticket = pool.submit(JobSpec("sleep", (0.5, "survivor")))
        victim = pool.pids()[ticket.worker]
        time.sleep(0.05)
        os.kill(victim, signal.SIGKILL)
        pool.drain()
        stats = pool.stats()
        check(
            ticket.result.ok
            and ticket.result.value == "survivor"
            and stats["worker_restarts"] == 1
            and stats["redispatched"] == 1,
            "SIGKILLed worker restarted, job re-dispatched exactly once",
        )
        pids = pool.pids()
    check(
        all(not _alive(pid) for pid in pids),
        "close() left no worker process behind",
    )

    print("workers-demo: all checks passed")
    return 0


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


if __name__ == "__main__":
    sys.exit(main())

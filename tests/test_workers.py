"""The persistent worker pool: lifecycle, affinity, and failure paths.

These tests exercise :class:`repro.workers.WorkerPool` directly (the
typed ``start/submit/drain/close`` surface) and through the engine.
The failure-path tests are the load-bearing ones: a SIGKILLed worker
must be restarted with its job re-dispatched *exactly once*, a job
whose payload the codec rejects must fail alone, and ``drain()`` under
load must complete every accepted job.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.engine import Engine, JobSpec
from repro.engine.jobs import JOB_KINDS
from repro.solver import SolveRequest
from repro.tasks.set_consensus import set_consensus_task
from repro.workers import WorkerPool, affinity_key, decompose, recompose


@pytest.fixture
def task23():
    return set_consensus_task(3, 2)


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------
def test_wire_round_trips_solve_payloads(ra_1res, task23):
    request = SolveRequest(affine=ra_1res, task=task23, budget=77)
    shared, delta = decompose("solve", (request,))
    assert shared == [ra_1res, task23]
    assert recompose("solve", shared, delta) == (request,)


def test_wire_round_trips_generic_payloads():
    payload = (3, 1)
    shared, delta = decompose("chr", payload)
    assert shared == []
    assert recompose("chr", shared, delta) == payload


def test_wire_affinity_key_only_for_setup_carrying_kinds(ra_1res, task23):
    request = SolveRequest(affine=ra_1res, task=task23)
    key = affinity_key("solve", (request,))
    assert key is not None
    # certify against the same setup routes to the same warm worker.
    assert affinity_key("certify", (ra_1res, task23, None)) == key
    assert affinity_key("chr", (3, 1)) is None
    assert affinity_key("sleep", (0.1, "x")) is None


# ----------------------------------------------------------------------
# Lifecycle and parity
# ----------------------------------------------------------------------
def test_run_batch_matches_in_process_and_preserves_order():
    specs = [JobSpec("chr", (3, 1)), JobSpec("chr", (2, 1))]
    with WorkerPool(2) as pool:
        results = pool.run_batch(list(enumerate(specs)))
    assert [result.index for result in results] == [0, 1]
    assert [result.value for result in results] == [
        spec.run() for spec in specs
    ]
    assert all(result.ok for result in results)


def test_pool_survives_across_engine_batches():
    engine = Engine(jobs=2)
    try:
        engine.run_jobs([JobSpec("chr", (3, 1)), JobSpec("chr", (2, 1))])
        pool = engine._pool
        assert pool is not None
        first_pids = sorted(pool.pids())
        engine.run_jobs([JobSpec("chr", (4, 1)), JobSpec("chr", (2, 2))])
        assert engine._pool is pool
        assert sorted(pool.pids()) == first_pids  # no respawn between batches
    finally:
        engine.close()


def test_engine_close_is_reopenable():
    engine = Engine(jobs=2)
    (first,) = engine.run_jobs([JobSpec("chr", (2, 1)), JobSpec("chr", (2, 2))])[:1]
    engine.close()
    assert engine.worker_stats() is None
    # A batch after close starts a fresh pool transparently.
    (again,) = engine.run_jobs([JobSpec("chr", (2, 1)), JobSpec("chr", (2, 2))])[:1]
    assert again.value == first.value
    assert engine.worker_stats() is not None
    engine.close()


def test_pool_close_is_idempotent_and_restartable():
    pool = WorkerPool(2)
    pool.start()
    assert len(pool.pids()) == 2
    pool.close()
    pool.close()
    assert pool.pids() == []
    # submit() auto-starts a closed pool.
    ticket = pool.submit(JobSpec("chr", (2, 1)))
    pool.drain()
    assert ticket.result.ok
    pool.close()


# ----------------------------------------------------------------------
# Affinity routing
# ----------------------------------------------------------------------
def test_repeat_setups_pin_to_one_warm_worker(ra_1of, task23):
    requests = [
        SolveRequest(affine=ra_1of, task=task23) for _ in range(4)
    ]
    with WorkerPool(2) as pool:
        for index, request in enumerate(requests):
            pool.submit(JobSpec("solve", (request,)), index=index)
            # Drain between submissions: the interesting property is
            # that *later batches* land on the worker whose setup is
            # warm, not intra-batch behaviour (a backed-up home worker
            # is allowed to spill).
            pool.drain()
        stats = pool.stats()
    assert stats["affinity_routed"] == 4
    # The first submission establishes the pin; every later one hits it.
    assert stats["affinity_hits"] == 3
    assert stats["affinity_hit_rate"] == 0.75
    assert stats["completed"] == 4


def test_distinct_setups_do_not_count_as_hits(ra_1of, ra_1res, task23):
    with WorkerPool(2) as pool:
        pool.submit(JobSpec("solve", (SolveRequest(affine=ra_1of, task=task23),)))
        pool.submit(JobSpec("solve", (SolveRequest(affine=ra_1res, task=task23),)))
        pool.drain()
        stats = pool.stats()
    assert stats["affinity_routed"] == 2
    assert stats["affinity_hits"] == 0


# ----------------------------------------------------------------------
# Failure paths
# ----------------------------------------------------------------------
def test_sigkilled_worker_restarts_and_job_redispatches_exactly_once():
    with WorkerPool(2) as pool:
        ticket = pool.submit(JobSpec("sleep", (0.5, "survivor")))
        assert ticket.worker is not None  # dispatched immediately
        victim_pid = pool.pids()[ticket.worker]
        time.sleep(0.05)  # let the worker enter the sleep
        os.kill(victim_pid, signal.SIGKILL)
        pool.drain()
        stats = pool.stats()
        assert ticket.result.ok
        assert ticket.result.value == "survivor"
        assert ticket.redispatched == 1
    assert stats["worker_restarts"] == 1
    assert stats["redispatched"] == 1
    assert stats["completed"] == 1


def _exit_worker(payload: tuple):
    # Kills the executing worker outright, mid-job, with no cleanup:
    # ``os._exit`` skips every handler.
    (code,) = payload
    os._exit(code)


def test_crashing_job_fails_alone_after_bounded_redispatch(monkeypatch):
    # A poison kind registered for this test only; forked workers
    # inherit the patched registry.
    monkeypatch.setitem(JOB_KINDS, "crash", _exit_worker)
    specs = [
        JobSpec("crash", (9,)),
        JobSpec("chr", (3, 1)),
        JobSpec("chr", (2, 1)),
    ]
    with WorkerPool(2, mp_context=multiprocessing.get_context("fork")) as pool:
        results = pool.run_batch(list(enumerate(specs)))
        stats = pool.stats()
    crash, good_a, good_b = results
    assert not crash.ok
    assert "worker died while running crash job" in crash.error
    assert "re-dispatched 1 time(s)" in crash.error
    assert good_a.ok and good_a.value == specs[1].run()
    assert good_b.ok and good_b.value == specs[2].run()
    # Initial dispatch + one re-dispatch, each killing its worker.
    assert stats["worker_restarts"] == 2
    assert stats["redispatched"] == 1


def test_poisoned_payload_fails_alone_at_submit_time():
    with WorkerPool(2) as pool:
        poisoned = pool.submit(JobSpec("sleep", (0.01, object())), index=0)
        healthy = pool.submit(JobSpec("chr", (2, 1)), index=1)
        # The codec rejected it before any worker saw it.
        assert poisoned.done and not poisoned.result.ok
        pool.drain()
        stats = pool.stats()
    assert healthy.result.ok
    assert stats["codec_errors"] == 1
    assert stats["worker_restarts"] == 0


def test_drain_under_load_completes_every_accepted_job():
    specs = []
    for round_index in range(5):
        specs.append(JobSpec("sleep", (0.01, f"s{round_index}")))
        specs.append(JobSpec("chr", (2, 1 + round_index % 2)))
    with WorkerPool(2) as pool:
        tickets = [
            pool.submit(spec, index=index)
            for index, spec in enumerate(specs)
        ]
        pool.drain()
        stats = pool.stats()
    assert all(ticket.done for ticket in tickets)
    assert all(ticket.result.ok for ticket in tickets)
    assert stats["completed"] == len(specs)
    assert stats["dispatched"] >= len(specs)


def test_timeout_kills_worker_and_pool_stays_usable():
    with WorkerPool(1, timeout=0.3) as pool:
        stuck = pool.submit(JobSpec("sleep", (30.0, "never")))
        pool.drain()
        assert stuck.result.error == "timeout"
        after = pool.submit(JobSpec("chr", (2, 1)))
        pool.drain()
        stats = pool.stats()
    assert after.result.ok
    assert stats["timeouts"] == 1
    assert stats["worker_restarts"] == 1


def test_close_resolves_unfinished_jobs_as_errors():
    pool = WorkerPool(1)
    ticket = pool.submit(JobSpec("sleep", (30.0, "abandoned")))
    pool.close()
    assert ticket.done
    assert ticket.result.error == "worker pool closed"

"""``Engine(jobs>1)``: the process pool, its lifecycle and failure paths.

The failure-path tests are the load-bearing ones: a job whose worker is
SIGKILLed must be re-run once and still return its value, a job that
kills its worker every time must fail alone, a job whose payload the
codec rejects must fail alone, and a batch under load must complete
every job.
"""

from __future__ import annotations

import os
import signal
import time

from repro.engine import Engine, JobSpec
from repro.engine import jobs as jobs_module
from repro.engine.jobs import JOB_KINDS


# ----------------------------------------------------------------------
# Lifecycle and parity
# ----------------------------------------------------------------------
def test_run_batch_matches_in_process_and_preserves_order():
    specs = [JobSpec("chr", (3, 1)), JobSpec("chr", (2, 1))]
    with Engine(jobs=2) as engine:
        results = engine.run_jobs(specs)
    assert [result.index for result in results] == [0, 1]
    assert [result.value for result in results] == [
        spec.run() for spec in specs
    ]
    assert all(result.ok for result in results)


def test_pool_survives_across_engine_batches():
    with Engine(jobs=2) as engine:
        engine.run_jobs([JobSpec("chr", (3, 1)), JobSpec("chr", (2, 1))])
        pool = engine._pool
        assert pool is not None
        first_pids = sorted(pool._processes)
        engine.run_jobs([JobSpec("chr", (4, 1)), JobSpec("chr", (2, 2))])
        assert engine._pool is pool
        assert sorted(pool._processes) == first_pids  # no respawn


def test_engine_close_is_reopenable():
    engine = Engine(jobs=2)
    specs = [JobSpec("chr", (2, 1)), JobSpec("chr", (2, 2))]
    first = engine.run_jobs(specs)
    engine.close()
    assert engine._pool is None
    # A batch after close forks a fresh pool transparently.
    again = engine.run_jobs(specs)
    assert [r.value for r in again] == [r.value for r in first]
    assert engine._pool is not None
    engine.close()


def test_pool_close_is_idempotent_and_restartable():
    never_pooled = Engine(jobs=2)
    never_pooled.close()
    with Engine(jobs=2) as engine:
        engine.run_jobs([JobSpec("chr", (2, 1)), JobSpec("chr", (2, 2))])
        pool = engine._pool
    assert engine._pool is None  # leaving the block closed it
    assert not pool._processes
    engine.close()
    (result, _) = engine.run_jobs(
        [JobSpec("chr", (2, 1)), JobSpec("chr", (2, 2))]
    )
    assert result.ok
    engine.close()


# ----------------------------------------------------------------------
# Failure paths
# ----------------------------------------------------------------------
def _die_once(payload: tuple):
    # Logs every run; the first run SIGKILLs its own worker mid-job.
    log, token = payload
    with open(log, "a", encoding="utf-8") as handle:
        handle.write("run\n")
    with open(log, encoding="utf-8") as handle:
        if len(handle.readlines()) == 1:
            os.kill(os.getpid(), signal.SIGKILL)
    return token


def test_sigkilled_worker_restarts_and_job_redispatches_exactly_once(
    monkeypatch, tmp_path
):
    monkeypatch.setitem(JOB_KINDS, "die_once", _die_once)
    log = tmp_path / "runs.log"
    specs = [
        JobSpec("die_once", (str(log), "survivor")),
        JobSpec("chr", (3, 1)),
        JobSpec("chr", (2, 1)),
    ]
    with Engine(jobs=2) as engine:
        engine.run_jobs(specs[1:])
        broken = engine._pool
        survivor, good_a, good_b = engine.run_jobs(specs)
        # The broken pool was dropped for good.
        assert engine._pool is not broken
        engine.run_jobs(specs[1:])
        assert engine._pool is not broken
    assert survivor.ok and survivor.value == "survivor"
    assert log.read_text().count("run") == 2  # killed once, re-run once
    assert good_a.ok and good_a.value == specs[1].run()
    assert good_b.ok and good_b.value == specs[2].run()


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
    with Engine(jobs=2) as engine:
        crash, good_a, good_b = engine.run_jobs(specs)
    assert not crash.ok
    assert "worker died while running crash job" in crash.error
    assert "re-dispatched 1 time(s)" in crash.error
    assert good_a.ok and good_a.value == specs[1].run()
    assert good_b.ok and good_b.value == specs[2].run()


def _log_and_exit(payload: tuple):
    (log,) = payload
    with open(log, "a", encoding="utf-8") as handle:
        handle.write("run\n")
    os._exit(9)


def test_crashing_job_runs_once_alone_and_queued_jobs_carry_on(
    monkeypatch, tmp_path, sleep_kind
):
    # Of the jobs a death takes down, only those that were running are
    # re-run alone; the queued ones go on together on a fresh pool.
    monkeypatch.setitem(JOB_KINDS, "crash_log", _log_and_exit)
    forked = []

    def fork_pool(workers):
        forked.append(workers)
        return fork(workers)

    fork = jobs_module._fork_pool
    monkeypatch.setattr(jobs_module, "_fork_pool", fork_pool)
    log = tmp_path / "runs.log"
    specs = [JobSpec("crash_log", (str(log),))] + [
        JobSpec("sleep", (0.05, f"s{i}")) for i in range(10)
    ]
    with Engine(jobs=2) as engine:
        crash, *good = engine.run_jobs(specs)
    assert "re-dispatched 1 time(s)" in crash.error
    assert log.read_text().count("run") == 2  # in the pool, then alone
    assert [result.value for result in good] == [f"s{i}" for i in range(10)]
    # The crash, at most two jobs that were running beside it, and not
    # the eight or more that were still queued.
    assert forked.count(1) <= 3


def test_worker_killed_while_idle_leaves_the_next_batch_whole():
    specs = [JobSpec("chr", (2, 1)), JobSpec("chr", (2, 2))]
    with Engine(jobs=2) as engine:
        first = engine.run_jobs(specs)
        broken = engine._pool
        os.kill(next(iter(broken._processes)), signal.SIGKILL)
        deadline = time.monotonic() + 10
        while not broken._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        assert broken._broken
        again = engine.run_jobs(specs)
        assert engine._pool is not broken
    assert [r.value for r in again] == [r.value for r in first]
    assert all(result.ok for result in again)


def test_poisoned_payload_fails_alone_at_submit_time(sleep_kind):
    with Engine(jobs=2) as engine:
        engine.run_jobs([JobSpec("chr", (2, 1)), JobSpec("chr", (2, 2))])
        pool = engine._pool
        poisoned, healthy = engine.run_jobs(
            [JobSpec("sleep", (0.01, object())), JobSpec("chr", (2, 1))]
        )
        # The codec rejected it before any worker saw it.
        assert engine._pool is pool
    assert not poisoned.ok
    assert "SerializationError" in poisoned.error
    assert healthy.ok


def test_drain_under_load_completes_every_accepted_job(sleep_kind):
    specs = []
    for round_index in range(5):
        specs.append(JobSpec("sleep", (0.01, f"s{round_index}")))
        specs.append(JobSpec("chr", (2, 1 + round_index % 2)))
    with Engine(jobs=2) as engine:
        results = engine.run_jobs(specs)
    assert [result.index for result in results] == list(range(len(specs)))
    assert all(result.ok for result in results)
    assert [result.value for result in results[::2]] == [
        f"s{i}" for i in range(5)
    ]

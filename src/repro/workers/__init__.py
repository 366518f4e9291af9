"""Persistent warm workers: the engine's process-parallel substrate.

This package is what makes ``jobs > 1`` actually pay (see ROADMAP):

* :mod:`~repro.workers.pool` — :class:`WorkerPool`, long-lived worker
  processes with an explicit ``start/submit/drain/close`` lifecycle,
  setup-digest affinity routing, bounded crash re-dispatch, and per-job
  timeouts.  :class:`repro.engine.jobs.Engine` owns one per process;
  the service batcher and sweep driver ride on it.
* :mod:`~repro.workers.wire` — digest + compact-delta payload
  decomposition over the canonical codec, so a multi-KB task crosses
  the pipe once per worker and stays warm there.

See ``docs/engine.md`` ("worker pool & affinity") for the API.
"""

from .pool import JobTicket, WorkerPool
from .wire import affinity_key, decompose, recompose

__all__ = [
    "JobTicket",
    "WorkerPool",
    "affinity_key",
    "decompose",
    "recompose",
]

"""Micro-batching and in-flight request coalescing for the service.

Queries arriving within one batching *window* are merged into a single
:meth:`Engine.run_jobs` call, which amortizes dispatch overhead and
lets the engine's cache and dedup layers see the whole batch at once.
Orthogonally, requests for a computation that is already in flight —
pending in the current window *or* executing in a dispatched batch —
never start a second computation: they attach to the existing result
future and receive the same :class:`JobResult` (marked
``coalesced=True``) when it lands.  In-flight requests are keyed by the
exact request the caller received (the server passes ``kind`` plus the
payload's wire text), which costs nothing to compute; the engine's
content digest stays the only content address, so a request written
differently (set members permuted) but equal in value is deduplicated
by the engine batch or answered from its cache instead.

The engine is synchronous and CPU-bound, so batches run on a dedicated
single worker thread (``run_in_executor``); the engine itself may still
fan out to worker *processes* via its ``jobs`` setting.  A single
dispatch thread also serializes all cache access, so the memcache tier
sees a consistent request stream.

Waiters hold the shared future through :func:`asyncio.shield`: a
cancelled or timed-out request abandons its *wait*, never the
computation, so late duplicates and the cache still benefit.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Dict, Hashable, List, Optional, Tuple

from .. import obs
from ..engine.jobs import Engine, JobResult, JobSpec
from .metrics import Metrics


class Batcher:
    """Coalescing micro-batch dispatcher in front of one engine."""

    def __init__(
        self,
        engine: Engine,
        *,
        window: float = 0.002,
        max_batch: int = 64,
        metrics: Optional[Metrics] = None,
    ):
        if window < 0:
            raise ValueError("window must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.engine = engine
        self.window = window
        self.max_batch = max_batch
        self.metrics = metrics if metrics is not None else Metrics()
        self._loop = asyncio.get_running_loop()
        self._pending: "OrderedDict[Hashable, Tuple[JobSpec, asyncio.Future]]" = (
            OrderedDict()
        )
        self._inflight: Dict[Hashable, asyncio.Future] = {}
        self._flush_handle: Optional[asyncio.TimerHandle] = None
        self._batch_tasks: set = set()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine"
        )
        self._closed = False

    # ------------------------------------------------------------------
    async def submit(self, spec: JobSpec, key: Hashable) -> JobResult:
        """One query through the batcher; returns the job's result.

        ``key`` identifies the request exactly (the server passes
        ``(kind, payload_text)``); equal keys must mean equal specs.
        Concurrent submissions under one key share one computation;
        every submission gets its own :class:`JobResult` view (attachers
        see ``coalesced=True``).
        """
        if self._closed:
            raise RuntimeError("batcher is closed")
        future = self._inflight.get(key)
        if future is not None:
            self.metrics.inc("coalesced_total")
            result = await asyncio.shield(future)
            return replace(result, coalesced=True)
        future = self._loop.create_future()
        self._inflight[key] = future
        self._pending[key] = (spec, future)
        if len(self._pending) >= self.max_batch:
            self._flush()
        elif self._flush_handle is None:
            self._flush_handle = self._loop.call_later(
                self.window, self._flush
            )
        return await asyncio.shield(future)

    # ------------------------------------------------------------------
    def _flush(self) -> None:
        """Dispatch everything pending as one engine batch."""
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        if not self._pending:
            return
        entries = list(self._pending.items())
        self._pending.clear()
        task = self._loop.create_task(self._run_batch(entries))
        self._batch_tasks.add(task)
        task.add_done_callback(self._batch_tasks.discard)

    async def _run_batch(
        self, entries: List[Tuple[Hashable, Tuple[JobSpec, asyncio.Future]]]
    ) -> None:
        specs = [spec for _, (spec, _) in entries]
        self.metrics.inc("batches_total")
        # Dispatched, not necessarily computed: the engine may still
        # answer some of these from its cache tiers.
        self.metrics.inc("jobs_dispatched_total", len(specs))
        try:
            results = await self._loop.run_in_executor(
                self._executor, self._traced_run_jobs, specs
            )
        except Exception as exc:  # engine infrastructure failure
            for key, (_, future) in entries:
                self._inflight.pop(key, None)
                if not future.done():
                    future.set_exception(exc)
            return
        for (key, (_, future)), result in zip(entries, results):
            self._inflight.pop(key, None)
            if not future.done():
                future.set_result(result)

    def _traced_run_jobs(self, specs: List[JobSpec]) -> List[JobResult]:
        # ``run_in_executor`` does not propagate contextvars, so the
        # dispatch thread starts context-free: the ``service.batch``
        # span is deliberately a fresh trace root covering every query
        # merged into this batch (queries keep their own per-request
        # traces on the event loop side).
        with obs.span("service.batch", specs=len(specs)):
            return self.engine.run_jobs(specs)

    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Distinct computations currently pending or executing."""
        return len(self._inflight)

    async def drain(self) -> None:
        """Flush and wait until every in-flight batch has completed."""
        self._flush()
        while self._batch_tasks:
            await asyncio.gather(*list(self._batch_tasks), return_exceptions=True)

    async def close(self) -> None:
        """Drain, then refuse further submissions and free the workers.

        Closing also releases the engine's persistent worker pool: all
        engine batches serialize through this batcher's dispatch thread,
        so once it is shut down nothing else is using the pool.  The
        engine itself stays usable (a later batch would start a fresh
        pool).
        """
        await self.drain()
        self._closed = True
        self._executor.shutdown(wait=True)
        self.engine.close()

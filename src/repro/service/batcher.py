"""Dispatch-when-idle batching and in-flight request coalescing.

A decoded query goes to the engine at once when no batch is running.
Queries decoded while a batch runs wait; when it finishes, everything
waiting leaves together as the next :meth:`Engine.run_jobs` call (up to
:data:`MAX_BATCH` specs), which lets the engine's cache and dedup
layers see the whole batch at once.  Orthogonally, requests for a
computation that is already in flight — waiting *or* executing in a
dispatched batch — never start a second computation: they attach to
the existing result future and receive the same :class:`JobResult`
(marked ``coalesced=True``) when it lands.  In-flight requests are
keyed by the server's :func:`~repro.service.memcache.request_key` —
``kind`` plus the payload's wire text, the key of its text tier too;
the engine's content digest stays the only content address, so a
request written differently (set members permuted) but equal in value
is deduplicated by the engine batch or answered from its cache instead.
Each ``ok`` result is serialized once on the dispatch thread, however
many requests share it, and the text enters the server's text tier
before its key leaves the in-flight table.

The engine is synchronous and CPU-bound, so batches run on a dedicated
single worker thread (``run_in_executor``); the engine itself may still
fan out to worker *processes* via its ``jobs`` setting.  A single
dispatch thread also serializes all engine cache access.

Waiters hold the shared future through :func:`asyncio.shield`: a
cancelled or timed-out request abandons its *wait*, never the
computation, so late duplicates and the cache still benefit.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Awaitable, Callable, Dict, Hashable, List, Optional, Tuple

from .. import obs
from ..engine.jobs import Engine, JobResult, JobSpec
from ..engine.serialize import serialize
from .memcache import MemCache
from .metrics import Metrics

#: A job's result and, when it is ``ok``, its canonical value text.
Answer = Tuple[JobResult, Optional[str]]

#: Most specs one engine batch carries; the rest leave with the next.
MAX_BATCH = 64


class Batcher:
    """Coalescing batch dispatcher in front of one engine."""

    def __init__(
        self,
        engine: Engine,
        memcache: MemCache,
        *,
        metrics: Optional[Metrics] = None,
    ):
        self.engine = engine
        self.memcache = memcache
        self.metrics = metrics if metrics is not None else Metrics()
        self._loop = asyncio.get_running_loop()
        self._pending: "OrderedDict[Hashable, Tuple[JobSpec, asyncio.Future]]" = (
            OrderedDict()
        )
        self._inflight: Dict[Hashable, asyncio.Future] = {}
        #: Whether an engine batch is running on the dispatch thread.
        self._running = False
        #: Decodes and dispatched batches still running.
        self._tasks: set = set()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine"
        )
        self._closed = False

    # ------------------------------------------------------------------
    def join(self, key: Hashable) -> Optional[Awaitable[Answer]]:
        """The coalesced answer of the computation in flight under ``key``.

        ``None`` when nothing is in flight under that key.  Joining needs
        no spec, so a request for a running computation is never decoded.
        """
        future = self._inflight.get(key)
        if future is None:
            return None
        self.metrics.inc("coalesced_total")
        return self._coalesced(future)

    def submit(
        self, key: Hashable, decode: Callable[[], Awaitable[JobSpec]]
    ) -> Awaitable[Answer]:
        """Join the computation in flight under ``key``, or start one.

        Equal keys must mean equal specs.  A new key is in flight from
        this call on while ``decode()`` builds its spec, so requests
        arriving during the decode join it, and a decode error
        (``bad_payload``) reaches each of them.
        """
        if self._closed:
            raise RuntimeError("batcher is closed")
        joined = self.join(key)
        if joined is not None:
            return joined
        future = self._loop.create_future()
        self._inflight[key] = future
        self._track(self._enqueue(key, future, decode))
        return asyncio.shield(future)

    async def _enqueue(self, key, future, decode) -> None:
        try:
            spec = await decode()
        except Exception as exc:
            self._inflight.pop(key, None)
            future.set_exception(exc)
            return
        self._pending[key] = (spec, future)
        self._dispatch()

    def _track(self, coroutine) -> None:
        task = self._loop.create_task(coroutine)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    @staticmethod
    async def _coalesced(future: asyncio.Future) -> Answer:
        result, text = await asyncio.shield(future)
        return replace(result, coalesced=True), text

    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Send what is pending as one engine batch, unless one is running."""
        if self._running or not self._pending:
            return
        entries = []
        while self._pending and len(entries) < MAX_BATCH:
            entries.append(self._pending.popitem(last=False))
        self._running = True
        self._track(self._run_batch(entries))

    async def _run_batch(
        self, entries: List[Tuple[Hashable, Tuple[JobSpec, asyncio.Future]]]
    ) -> None:
        specs = [spec for _, (spec, _) in entries]
        self.metrics.inc("batches_total")
        # Dispatched, not necessarily computed: the engine may still
        # answer some of these from its cache tiers.
        self.metrics.inc("jobs_dispatched_total", len(specs))
        try:
            answers = await self._loop.run_in_executor(
                self._executor, self._traced_run_jobs, specs
            )
        except Exception as exc:  # engine infrastructure failure
            for key, (_, future) in entries:
                self._inflight.pop(key, None)
                if not future.done():
                    future.set_exception(exc)
        else:
            for (key, (_, future)), answer in zip(entries, answers):
                if answer[1] is not None:
                    self.memcache.put(key, answer[1])
                self._inflight.pop(key, None)
                if not future.done():
                    future.set_result(answer)
        finally:
            self._running = False
            self._dispatch()

    def _traced_run_jobs(self, specs: List[JobSpec]) -> List[Answer]:
        # ``run_in_executor`` does not propagate contextvars, so the
        # dispatch thread starts context-free: the ``service.batch``
        # span is deliberately a fresh trace root covering every query
        # merged into this batch (queries keep their own per-request
        # traces on the event loop side).
        with obs.span("service.batch", specs=len(specs)):
            return [
                (result, serialize(result.value) if result.ok else None)
                for result in self.engine.run_jobs(specs)
            ]

    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Distinct computations currently pending or executing."""
        return len(self._inflight)

    async def drain(self) -> None:
        """Wait until every in-flight computation has completed."""
        # A finishing batch dispatches what waits before its task is
        # discarded, so pending work always has a task behind it.
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    async def close(self) -> None:
        """Drain, then refuse further submissions and free the workers.

        Closing also shuts down the engine's process pool: all engine
        batches serialize through this batcher's dispatch thread, so
        once it is shut down nothing else is using the pool.  The
        engine itself stays usable (a later batch would fork a fresh
        pool).
        """
        await self.drain()
        self._closed = True
        self._executor.shutdown(wait=True)
        self.engine.close()

"""Persistent warm-worker pool behind the typed job submission API.

The engine's old fan-out built a ``ProcessPoolExecutor`` per batch:
every batch paid process startup, every chunk re-shipped full payloads,
and every worker re-derived the solver setups that give the bitset
kernel its warm advantage — which is how "add a second worker" came to
mean "go slower" (``speedup_multiworker_cold: 0.61`` historically).

:class:`WorkerPool` replaces that with long-lived worker processes and
an explicit lifecycle — ``start`` / ``submit`` / ``drain`` / ``close``
(also a context manager) — consumed by :class:`repro.engine.jobs.Engine`
and, through it, the service batcher and the sweep driver:

* **Workers survive across batches.**  A worker keeps a digest-keyed
  cache of deserialized payload components, so the ``Task`` object (and
  the ``task._solver_setup`` interning tables cached on it) is built
  once and reused by every later job that references the same digest.
* **The wire carries digests + deltas** (see :mod:`repro.workers.wire`):
  a shared component's full canonical text crosses the pipe once per
  worker; afterwards jobs ship a digest reference and a small delta.
* **Affinity routing.**  Jobs exposing a solver setup digest are routed
  to the worker that already holds that setup, spilling to the least
  loaded worker only when the home worker is backed up — observable as
  ``workers.dispatch`` / ``workers.affinity_hit`` spans and in
  :meth:`WorkerPool.stats`.
* **Failure containment.**  A worker that dies mid-job (SIGKILL, hard
  crash) is restarted and its in-flight job re-dispatched exactly once
  before the job surfaces as an error; queued-but-unsent jobs are
  re-routed without penalty.  A job whose payload cannot be encoded
  fails alone at submit time.  Per-job wall-clock timeouts kill the
  running worker and surface ``error="timeout"``, exactly like the old
  pool.

Dispatch keeps **at most one in-flight job per worker** — the parent
only writes to a worker that is idle in ``recv``, so a large job text
and a large result can never wedge the duplex pipe against each other.
Parent-side per-worker backlogs preserve routing while a worker is
busy.
"""

from __future__ import annotations

import time
import traceback
import weakref
import multiprocessing
from collections import deque
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..engine.serialize import deserialize, serialize
from .wire import affinity_key, component_digest, decompose, recompose

__all__ = ["JobTicket", "WorkerPool"]

#: How deep a home worker's queue may be before an affinity job spills
#: to the least-loaded worker (counting the in-flight job).
_SPILL_DEPTH = 2


# ----------------------------------------------------------------------
# Worker process entry point
# ----------------------------------------------------------------------
def _worker_main(conn) -> None:
    """Serve jobs until shutdown/EOF; never raises out.

    Messages in: ``("job", ticket_id, kind, parts, delta_text, carrier)``
    or ``("shutdown",)``.  Messages out: ``("result", ticket_id, status,
    data, wall, span_dicts)`` with ``status`` in ``ok|budget|error``.
    """
    from ..engine.jobs import JOB_KINDS
    from ..engine.serialize import deserialize, serialize
    from ..tasks.solvability import SearchBudgetExceeded

    # digest -> deserialized component object.  This map is the pool's
    # whole point: the same Task object comes back for every job that
    # references its digest, so the solver setup cached on it is warm.
    objects: Dict[str, Any] = {}

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] != "job":
            return
        _tag, ticket_id, kind, parts, delta_text, carrier = message

        # Workers forked from a traced parent inherit its tracer; reset
        # so worker tracing is governed only by the carrier sent along.
        tracer = obs.enable() if carrier is not None else None
        if carrier is None:
            obs.disable()

        started = time.perf_counter()
        status: str = "error"
        data: Any = None
        with obs.attach(carrier):
            try:
                with obs.span("engine.codec.decode", kind=kind):
                    shared = []
                    for part in parts:
                        if part[0] == "val":
                            objects[part[1]] = deserialize(part[2])
                        shared.append(objects[part[1]])
                    payload = recompose(kind, shared, delta_text)
                with obs.span("engine.compute", kind=kind):
                    value = JOB_KINDS[kind](payload)
                with obs.span("engine.codec.encode", kind=kind):
                    data = serialize(value)
                status = "ok"
            except SearchBudgetExceeded as exc:
                status, data = "budget", exc.nodes_explored
            except BaseException:
                status, data = "error", traceback.format_exc(limit=8)
        wall = time.perf_counter() - started

        span_dicts: List[Dict[str, Any]] = []
        if tracer is not None:
            span_dicts = [span.to_dict() for span in tracer.drain()]
            obs.disable()
        try:
            conn.send(("result", ticket_id, status, data, wall, span_dicts))
        except (OSError, ValueError):
            return


def _reap(processes: List) -> None:
    """Finalizer: no worker outlives its pool object."""
    for process in processes:
        try:
            if process.is_alive():
                process.terminate()
        except (OSError, ValueError):
            pass


# ----------------------------------------------------------------------
# Parent-side bookkeeping
# ----------------------------------------------------------------------
class JobTicket:
    """One accepted job: resolves to a ``JobResult`` exactly once."""

    __slots__ = (
        "ticket_id",
        "index",
        "spec",
        "carrier",
        "shared",
        "delta_text",
        "affinity",
        "affinity_hit",
        "result",
        "redispatched",
        "worker",
        "dispatched_at",
    )

    def __init__(self, ticket_id: int, index: int, spec, carrier):
        self.ticket_id = ticket_id
        self.index = index
        self.spec = spec
        self.carrier = carrier
        self.shared: List[Tuple[str, Any]] = []
        self.delta_text: Optional[str] = None
        self.affinity: Optional[str] = None
        self.affinity_hit = False
        self.result = None
        self.redispatched = 0
        self.worker: Optional[int] = None
        self.dispatched_at: Optional[float] = None

    @property
    def done(self) -> bool:
        return self.result is not None


class _WorkerSlot:
    __slots__ = ("index", "process", "conn", "current", "backlog", "sent", "jobs_done")

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.conn = None
        self.current: Optional[JobTicket] = None
        self.backlog: Deque[JobTicket] = deque()
        self.sent: set = set()
        self.jobs_done = 0

    def load(self) -> int:
        return len(self.backlog) + (self.current is not None)


class WorkerPool:
    """Typed, persistent worker pool: ``start/submit/drain/close``.

    Parameters
    ----------
    workers:
        Worker process count (>= 1).
    timeout:
        Optional per-job wall-clock budget, measured from dispatch; an
        overrun kills the worker and surfaces ``error="timeout"``.
    max_redispatch:
        How many times a job whose worker died mid-run is re-dispatched
        before it surfaces as an error (default 1 — exactly once).
    mp_context:
        A ``multiprocessing`` context (default: the platform default,
        ``fork`` on Linux, which is what keeps worker startup cheap).
    """

    def __init__(
        self,
        workers: int,
        *,
        timeout: Optional[float] = None,
        max_redispatch: int = 1,
        mp_context=None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.timeout = timeout
        self.max_redispatch = max_redispatch
        self._ctx = mp_context or multiprocessing.get_context()
        self._slots: List[_WorkerSlot] = []
        self._procbox: List = []  # shared with the finalizer, updated in place
        self._finalizer = None
        self._tickets: Dict[int, JobTicket] = {}
        self._next_ticket = 0
        self._unresolved = 0
        self._affinity: Dict[str, int] = {}
        self._started = False
        self._closing = False
        self._counters: Dict[str, int] = {
            "dispatched": 0,
            "completed": 0,
            "affinity_routed": 0,
            "affinity_hits": 0,
            "worker_restarts": 0,
            "redispatched": 0,
            "timeouts": 0,
            "codec_errors": 0,
        }

    def __repr__(self) -> str:
        state = "running" if self._started else "stopped"
        return f"WorkerPool(workers={self.workers}, {state})"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "WorkerPool":
        """Spawn the workers (idempotent; ``submit`` auto-starts)."""
        if self._started:
            return self
        self._slots = [_WorkerSlot(i) for i in range(self.workers)]
        self._procbox[:] = [None] * self.workers
        for slot in self._slots:
            self._spawn(slot)
        if self._finalizer is None or not self._finalizer.alive:
            self._finalizer = weakref.finalize(self, _reap, self._procbox)
        self._started = True
        return self

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _spawn(self, slot: _WorkerSlot) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            daemon=True,
            name=f"repro-worker-{slot.index}",
        )
        process.start()
        child_conn.close()
        slot.process = process
        slot.conn = parent_conn
        slot.sent = set()
        slot.current = None
        self._procbox[slot.index] = process

    def close(self, timeout: float = 5.0) -> None:
        """Stop the workers; idempotent, and the pool may be restarted.

        Jobs still unresolved when ``close`` is called resolve to an
        error result (the engine always drains its batches first, so
        this only fires on direct, unconventional use).
        """
        if not self._started:
            return
        self._closing = True
        try:
            for slot in self._slots:
                try:
                    slot.conn.send(("shutdown",))
                except (OSError, ValueError):
                    pass
            deadline = time.monotonic() + timeout
            for slot in self._slots:
                slot.process.join(max(0.0, deadline - time.monotonic()))
                if slot.process.is_alive():
                    slot.process.terminate()
                    slot.process.join(1.0)
                if slot.process.is_alive():  # pragma: no cover - stuck in D state
                    slot.process.kill()
                    slot.process.join(1.0)
                try:
                    slot.conn.close()
                except (OSError, ValueError):
                    pass
            for ticket in list(self._tickets.values()):
                if not ticket.done:
                    self._resolve(ticket, self._error_result(ticket, "worker pool closed"))
        finally:
            self._slots = []
            self._procbox[:] = []
            self._affinity.clear()
            self._tickets.clear()
            self._unresolved = 0
            self._started = False
            self._closing = False

    def pids(self) -> List[int]:
        """Live worker PIDs (test/diagnostic surface)."""
        return [slot.process.pid for slot in self._slots if slot.process is not None]

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, spec, index: int = 0) -> JobTicket:
        """Accept one ``JobSpec``; returns a ticket that will resolve.

        A payload the canonical codec cannot encode resolves the ticket
        immediately with an error result — a poisoned job fails alone,
        it never reaches (or takes down) a worker.
        """
        self.start()
        ticket = JobTicket(self._next_ticket, index, spec, obs.current_carrier())
        self._next_ticket += 1
        self._tickets[ticket.ticket_id] = ticket
        self._unresolved += 1
        try:
            shared, delta_text = decompose(spec.kind, spec.payload)
            ticket.shared = [(component_digest(c), c) for c in shared]
            ticket.delta_text = delta_text
            ticket.affinity = affinity_key(spec.kind, spec.payload)
        except Exception:
            self._counters["codec_errors"] += 1
            self._resolve(
                ticket, self._error_result(ticket, traceback.format_exc(limit=8))
            )
            return ticket
        self._assign(ticket)
        return ticket

    def run_batch(self, pending: Sequence[Tuple[int, Any]]) -> List:
        """Run ``(index, spec)`` pairs; results in submission order.

        This is what ``Engine.run_jobs`` calls for pooled batches.
        """
        tickets = [self.submit(spec, index=index) for index, spec in pending]
        self._wait(tickets)
        results = [ticket.result for ticket in tickets]
        results.sort(key=lambda result: result.index)
        for ticket in tickets:
            self._tickets.pop(ticket.ticket_id, None)
        return results

    def drain(self) -> None:
        """Block until every accepted job has resolved."""
        if not self._started:
            return
        while self._unresolved > 0:
            self._collect_once()

    # ------------------------------------------------------------------
    # Routing and dispatch
    # ------------------------------------------------------------------
    def _assign(self, ticket: JobTicket) -> None:
        slot = self._route(ticket)
        slot.backlog.append(ticket)
        self._pump(slot)

    def _route(self, ticket: JobTicket) -> _WorkerSlot:
        key = ticket.affinity
        if key is None:
            return min(self._slots, key=lambda s: (s.load(), s.index))
        self._counters["affinity_routed"] += 1
        home = self._affinity.get(key)
        if home is not None and self._slots[home].load() < _SPILL_DEPTH:
            chosen = self._slots[home]
        else:
            # Least-loaded, ties preferring the home worker, then the
            # lowest index — pins are sticky unless another worker is
            # strictly less loaded.
            chosen = min(
                self._slots,
                key=lambda s: (s.load(), 0 if s.index == home else 1, s.index),
            )
        ticket.affinity_hit = chosen.index == home
        if ticket.affinity_hit:
            self._counters["affinity_hits"] += 1
            with obs.span("workers.affinity_hit", kind=ticket.spec.kind):
                pass
        self._affinity[key] = chosen.index
        return chosen

    def _pump(self, slot: _WorkerSlot) -> None:
        """Send backlog work to an idle worker (one in flight, ever)."""
        while slot.current is None and slot.backlog:
            ticket = slot.backlog.popleft()
            if ticket.done:
                continue
            try:
                parts: List[tuple] = []
                for part_digest, component in ticket.shared:
                    if part_digest in slot.sent:
                        parts.append(("ref", part_digest))
                    else:
                        parts.append(("val", part_digest, serialize(component)))
                message = (
                    "job",
                    ticket.ticket_id,
                    ticket.spec.kind,
                    parts,
                    ticket.delta_text,
                    ticket.carrier,
                )
            except Exception:
                self._counters["codec_errors"] += 1
                self._resolve(
                    ticket, self._error_result(ticket, traceback.format_exc(limit=8))
                )
                continue
            try:
                slot.conn.send(message)
            except (OSError, ValueError):
                slot.backlog.appendleft(ticket)
                self._restart(slot)
                return
            for part_digest, _ in ticket.shared:
                slot.sent.add(part_digest)
            slot.current = ticket
            ticket.worker = slot.index
            ticket.dispatched_at = time.monotonic()
            self._counters["dispatched"] += 1
            with obs.span(
                "workers.dispatch",
                kind=ticket.spec.kind,
                worker=slot.index,
                affinity_hit=ticket.affinity_hit,
                redispatch=ticket.redispatched,
            ):
                pass

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _wait(self, tickets: List[JobTicket]) -> None:
        while any(not ticket.done for ticket in tickets):
            self._collect_once()

    def _collect_once(self, poll_timeout: float = 0.1) -> None:
        if not self._started or not self._slots:
            return
        wait_for = poll_timeout
        if self.timeout is not None:
            now = time.monotonic()
            for slot in self._slots:
                ticket = slot.current
                if ticket is not None and ticket.dispatched_at is not None:
                    remaining = ticket.dispatched_at + self.timeout - now
                    wait_for = max(0.0, min(wait_for, remaining))
        readers: Dict[Any, _WorkerSlot] = {}
        for slot in self._slots:
            readers[slot.conn] = slot
            readers[slot.process.sentinel] = slot
        try:
            ready = _connection_wait(list(readers), wait_for)
        except OSError:  # pragma: no cover - racing a dying worker
            ready = []
        dead: List[_WorkerSlot] = []
        for handle in ready:
            slot = readers[handle]
            if handle is slot.conn:
                try:
                    message = slot.conn.recv()
                except (EOFError, OSError):
                    if slot not in dead:
                        dead.append(slot)
                    continue
                self._handle_result(slot, message)
            else:  # process sentinel: the worker exited
                if slot not in dead:
                    dead.append(slot)
        for slot in dead:
            if slot.process.is_alive():
                continue  # stale sentinel after an in-loop restart
            # A worker may die right after sending its last result:
            # drain the pipe before declaring its job lost.
            try:
                while slot.conn.poll(0):
                    self._handle_result(slot, slot.conn.recv())
            except (EOFError, OSError):
                pass
            self._restart(slot)
        self._check_timeouts()

    def _check_timeouts(self) -> None:
        if self.timeout is None:
            return
        now = time.monotonic()
        for slot in self._slots:
            ticket = slot.current
            if (
                ticket is not None
                and ticket.dispatched_at is not None
                and now - ticket.dispatched_at > self.timeout
            ):
                self._counters["timeouts"] += 1
                self._resolve(ticket, self._error_result(ticket, "timeout"))
                slot.current = None
                # The worker is wedged in the job; reclaim it by force.
                self._restart(slot)

    def _handle_result(self, slot: _WorkerSlot, message: tuple) -> None:
        _tag, ticket_id, status, data, wall, span_dicts = message
        slot.jobs_done += 1
        if slot.current is not None and slot.current.ticket_id == ticket_id:
            slot.current = None
        if span_dicts:
            tracer = obs.get_tracer()
            if tracer is not None:
                tracer.ingest(span_dicts)
        ticket = self._tickets.get(ticket_id)
        if ticket is not None and not ticket.done:
            self._resolve(ticket, self._result_of(ticket, status, data, wall))
        self._pump(slot)

    def _result_of(self, ticket: JobTicket, status: str, data, wall: float):
        from ..engine.jobs import JobResult

        if status == "ok":
            try:
                with obs.span("engine.codec.decode", kind=ticket.spec.kind):
                    value = deserialize(data)
            except Exception:
                self._counters["codec_errors"] += 1
                return JobResult(
                    index=ticket.index,
                    kind=ticket.spec.kind,
                    error=traceback.format_exc(limit=8),
                    wall_time=wall,
                )
            return JobResult(
                index=ticket.index,
                kind=ticket.spec.kind,
                value=value,
                wall_time=wall,
            )
        if status == "budget":
            return JobResult(
                index=ticket.index,
                kind=ticket.spec.kind,
                error="budget",
                nodes_explored=data,
                wall_time=wall,
            )
        return JobResult(
            index=ticket.index, kind=ticket.spec.kind, error=data, wall_time=wall
        )

    def _error_result(self, ticket: JobTicket, message: str):
        from ..engine.jobs import JobResult

        return JobResult(index=ticket.index, kind=ticket.spec.kind, error=message)

    def _resolve(self, ticket: JobTicket, result) -> None:
        ticket.result = result
        self._unresolved -= 1
        self._counters["completed"] += 1
        # Resolved tickets leave the routing table: a stale message from
        # a worker we since timed out / restarted must not re-resolve.
        self._tickets.pop(ticket.ticket_id, None)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _restart(self, slot: _WorkerSlot) -> None:
        """Replace a dead/wedged worker; re-route its orphaned jobs.

        The in-flight job (if still unresolved) is re-dispatched at most
        ``max_redispatch`` times — exactly once by default — then fails;
        parent-side backlog jobs were never sent anywhere, so they
        re-route without penalty.
        """
        if self._closing:
            return
        victim = slot.current
        slot.current = None
        backlog = list(slot.backlog)
        slot.backlog.clear()
        try:
            slot.conn.close()
        except (OSError, ValueError):
            pass
        if slot.process.is_alive():
            slot.process.terminate()
        slot.process.join(5.0)
        if slot.process.is_alive():  # pragma: no cover - stuck in D state
            slot.process.kill()
            slot.process.join(1.0)
        self._counters["worker_restarts"] += 1
        self._spawn(slot)
        if victim is not None and not victim.done:
            victim.redispatched += 1
            if victim.redispatched > self.max_redispatch:
                self._resolve(
                    victim,
                    self._error_result(
                        victim,
                        f"worker died while running {victim.spec.kind} job "
                        f"(re-dispatched {victim.redispatched - 1} time(s))",
                    ),
                )
            else:
                self._counters["redispatched"] += 1
                self._assign(victim)
        for ticket in backlog:
            if not ticket.done:
                self._assign(ticket)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Dispatch/affinity/failure counters plus per-worker load."""
        out: Dict[str, Any] = dict(self._counters)
        routed = out["affinity_routed"]
        out["affinity_hit_rate"] = (
            out["affinity_hits"] / routed if routed else None
        )
        out["workers"] = self.workers
        out["alive"] = sum(
            1
            for slot in self._slots
            if slot.process is not None and slot.process.is_alive()
        )
        out["jobs_per_worker"] = [slot.jobs_done for slot in self._slots]
        return out

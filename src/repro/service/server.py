"""The asyncio query server: connections, deadlines, drain.

One :class:`ServiceServer` owns one :class:`~repro.engine.jobs.Engine`
(typically over the on-disk artifact cache) and serves the
line-delimited JSON protocol of :mod:`repro.service.protocol` over TCP:

* **Text tier** — a :class:`~repro.service.memcache.MemCache` of
  ``memcache_size`` value texts, keyed by ``kind`` and the exact payload
  text, answers a repeated query before its payload is decoded, without
  the codec, the batcher or the engine; the batcher stores the text of
  each ``ok`` miss.  A query already in flight is joined undecoded.
* **Connection limits** — beyond ``max_connections`` concurrent
  connections, new clients get one ``overloaded`` error line and are
  disconnected.
* **Pipelining with bounded concurrency** — every request line becomes
  a task; beyond ``max_inflight`` concurrently-processing requests the
  server answers ``overloaded`` immediately instead of queueing
  unboundedly.  Responses are written as they complete (match by
  ``id``); TCP backpressure is honored via ``writer.drain()``.
* **Per-request deadlines** — ``min(request timeout, server default)``;
  expiry abandons the *wait*, never the computation (the result still
  lands in the cache for the next asker).
* **Graceful drain** — on SIGTERM/SIGINT (or :meth:`drain`) the
  listener closes, in-flight requests get ``drain_grace`` seconds to
  finish and flush, then connections close and :meth:`wait_stopped`
  returns.

The line protocol is the only transport: every line, an HTTP request
line included, is parsed as a protocol request.  The ``stats`` and
``metrics`` ops are the introspection surface.

Everything expensive — payload decode, result encode, the engine batch
itself — runs in executor threads; the event loop only shuffles bytes
and hashes request keys.
"""

from __future__ import annotations

import asyncio
import signal
import time
from typing import Any, Dict, Optional, Set

from .. import obs
from ..engine.jobs import JOB_KINDS, Engine
from ..engine.jobs import JobSpec
from ..engine.serialize import SerializationError, deserialize
from ..solver.api import as_solve_request
from .batcher import Batcher
from .memcache import MemCache, request_key
from .metrics import Metrics
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    encode_message,
    error_response,
    metrics_response,
    parse_request,
    ping_response,
    query_response,
    response_for_result,
    stats_response,
)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7341


class ServiceServer:
    """A resident query server on top of one compute engine."""

    def __init__(
        self,
        engine: Engine,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        max_connections: int = 64,
        max_inflight: int = 256,
        request_timeout: Optional[float] = None,
        drain_grace: float = 10.0,
        memcache_size: int = 256,
        metrics: Optional[Metrics] = None,
    ):
        self.engine = engine
        self.host = host
        self.port = port  # updated to the bound port after start()
        self.max_connections = max_connections
        self.max_inflight = max_inflight
        self.request_timeout = request_timeout
        self.drain_grace = drain_grace
        self.memcache = MemCache(memcache_size)
        self.metrics = metrics if metrics is not None else Metrics()
        self._server: Optional[asyncio.AbstractServer] = None
        self._batcher: Optional[Batcher] = None
        self._connections: Set[asyncio.StreamWriter] = set()
        self._request_tasks: Set[asyncio.Task] = set()
        self._active_requests = 0
        self._draining = False
        self._drain_task: Optional[asyncio.Task] = None
        self._stopped: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener; ``self.port`` holds the actual port."""
        self._stopped = asyncio.Event()
        self._batcher = Batcher(
            self.engine,
            memcache=self.memcache,
            metrics=self.metrics,
        )
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self.host,
            port=self.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def wait_stopped(self) -> None:
        """Block until a drain has fully completed."""
        assert self._stopped is not None, "server not started"
        await self._stopped.wait()

    def request_drain(self) -> None:
        """Schedule a graceful drain (idempotent; signal-handler safe)."""
        if self._drain_task is None:
            self._drain_task = asyncio.get_running_loop().create_task(
                self.drain()
            )

    async def drain(self) -> None:
        """Stop accepting, let in-flight work finish, then shut down."""
        if self._draining:
            await self.wait_stopped()
            return
        self._draining = True
        self.metrics.inc("drains_total")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = [task for task in self._request_tasks if not task.done()]
        if pending:
            done, still_pending = await asyncio.wait(
                pending, timeout=self.drain_grace
            )
            for task in still_pending:
                task.cancel()
        if self._batcher is not None:
            await self._batcher.close()
        for writer in list(self._connections):
            writer.close()
        self._stopped.set()

    async def run(self, *, handle_signals: bool = True) -> None:
        """Start, serve until SIGTERM/SIGINT, drain, return."""
        await self.start()
        if handle_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_drain)
                except NotImplementedError:  # pragma: no cover - non-POSIX
                    pass
        await self.wait_stopped()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._draining:
            writer.close()
            return
        self.metrics.inc("connections_total")
        if len(self._connections) >= self.max_connections:
            self.metrics.inc("errors_overloaded_total")
            await self._write(
                writer,
                asyncio.Lock(),
                error_response(
                    None, "overloaded", "connection limit reached"
                ),
            )
            writer.close()
            return
        self._connections.add(writer)
        write_lock = asyncio.Lock()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    self.metrics.inc("errors_bad_request_total")
                    await self._write(
                        writer,
                        write_lock,
                        error_response(
                            None,
                            "bad_request",
                            f"request line exceeds {MAX_LINE_BYTES} bytes",
                        ),
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(
                    self._serve_line(line, writer, write_lock)
                )
                self._request_tasks.add(task)
                task.add_done_callback(self._request_tasks.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()

    async def _serve_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        response = await self._process_line(line)
        try:
            await self._write(writer, write_lock, response)
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        response: Dict[str, Any],
    ) -> None:
        text = encode_message(response)
        async with write_lock:
            writer.write(text.encode("utf-8") + b"\n")
            await writer.drain()

    # ------------------------------------------------------------------
    # Request processing
    # ------------------------------------------------------------------
    async def _process_line(self, line: bytes) -> Dict[str, Any]:
        started = time.perf_counter()
        self.metrics.inc("requests_total")
        with obs.span("service.request") as request_span:
            try:
                request = parse_request(
                    line.decode("utf-8", errors="replace")
                )
            except ProtocolError as exc:
                self.metrics.inc(f"errors_{exc.code}_total")
                request_span.set_attr("error", exc.code)
                return error_response(None, exc.code, exc.message)
            request_span.set_attr("op", request.op)
            self.metrics.inc(f"op_{request.op}_total")
            try:
                if request.op == "ping":
                    response = ping_response(request.id)
                elif request.op == "stats":
                    response = stats_response(request.id, self.stats())
                elif request.op == "metrics":
                    response = metrics_response(
                        request.id, self.metrics.render_text()
                    )
                else:
                    response = await self._process_query(request)
            except ProtocolError as exc:
                response = error_response(request.id, exc.code, exc.message)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # never let a request kill the loop
                response = error_response(
                    request.id, "internal", f"{type(exc).__name__}: {exc}"
                )
            if not response["ok"]:
                self.metrics.inc(
                    f"errors_{response['error']['code']}_total"
                )
                request_span.set_attr(
                    "error", response["error"]["code"]
                )
            else:
                self.metrics.inc("responses_ok_total")
            self.metrics.observe("request", time.perf_counter() - started)
            return response

    async def _process_query(self, request) -> Dict[str, Any]:
        if self._draining:
            raise ProtocolError("shutting_down", "server is draining")
        if self._active_requests >= self.max_inflight:
            raise ProtocolError(
                "overloaded",
                f"more than {self.max_inflight} requests in flight",
            )
        if request.kind not in JOB_KINDS:
            raise ProtocolError(
                "unknown_kind", f"unknown job kind {request.kind!r}"
            )
        started = time.perf_counter()
        key = request_key(request.kind, request.payload_text)
        # A request whose computation is in flight joins it; otherwise
        # the text tier answers a repeat.  Neither decodes the payload.
        waiter = self._batcher.join(key)
        if waiter is None:
            value_text = self.memcache.get(key)
            if value_text is not None:
                self.metrics.inc("cache_hits_total")
                wall_time = time.perf_counter() - started
                self.metrics.observe(f"query_{request.kind}", wall_time)
                return query_response(
                    request.id,
                    request.kind,
                    value_text,
                    cache_hit=True,
                    wall_time=wall_time,
                )
            waiter = self._batcher.submit(key, lambda: self._decode(request))
        deadline = self._deadline(request.timeout)
        self._active_requests += 1
        with obs.span("service.query", kind=request.kind) as query_span:
            try:
                if deadline is not None:
                    waiter = asyncio.wait_for(waiter, deadline)
                result, value_text = await waiter
            except asyncio.TimeoutError:
                raise ProtocolError(
                    "timeout", f"request deadline of {deadline}s expired"
                )
            finally:
                self._active_requests -= 1
                self.metrics.observe(
                    f"query_{request.kind}", time.perf_counter() - started
                )
            query_span.set_attr("cache_hit", result.cache_hit)
            query_span.set_attr("coalesced", result.coalesced)
            if result.ok:
                if result.cache_hit:
                    self.metrics.inc("cache_hits_total")
                if result.coalesced:
                    self.metrics.inc("coalesced_responses_total")
            return response_for_result(request.id, result, value_text)

    async def _decode(self, request) -> JobSpec:
        """The job spec of a query request; ``bad_payload`` if undecodable."""
        try:
            payload = await asyncio.get_running_loop().run_in_executor(
                None, deserialize, request.payload_text
            )
        except (SerializationError, ValueError) as exc:
            raise ProtocolError("bad_payload", f"undecodable payload: {exc}")
        if not isinstance(payload, tuple):
            raise ProtocolError(
                "bad_payload",
                f"payload must decode to a tuple, got {type(payload).__name__}",
            )
        if request.kind == "solve":
            # Wire payloads for solve are protocol-v1 positional tuples
            # (or already-typed requests from newer clients); normalize
            # to the typed path without a deprecation warning — the
            # wire format is the protocol, not a deprecated call site.
            # Typed specs also keep cache digests aligned with
            # engine-internal queries, preserving cross-path hits.
            try:
                payload = (as_solve_request(payload, warn=False),)
            except (TypeError, ValueError) as exc:
                raise ProtocolError(
                    "bad_payload", f"malformed solve payload: {exc}"
                )
        return JobSpec(request.kind, payload)

    def _deadline(self, requested: Optional[float]) -> Optional[float]:
        candidates = [
            value
            for value in (requested, self.request_timeout)
            if value is not None
        ]
        return min(candidates) if candidates else None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """The structured snapshot served by the ``stats`` op."""
        return {
            "server": {
                "host": self.host,
                "port": self.port,
                "protocol_version": PROTOCOL_VERSION,
                "connections": len(self._connections),
                "active_requests": self._active_requests,
                "draining": self._draining,
                "uptime_s": round(self.metrics.uptime(), 3),
            },
            "engine": {"jobs": self.engine.jobs, **self.engine.stats()},
            "batcher": {
                "inflight": self._batcher.inflight if self._batcher else 0,
            },
            "metrics": self.metrics.snapshot(),
            "memcache": self.memcache.stats(),
        }

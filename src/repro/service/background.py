"""Run a :class:`ServiceServer` on a background thread.

Tests, benchmarks and examples need a real TCP server without giving up
the calling thread.  :class:`BackgroundServer` runs the server's event
loop on a daemon thread, exposes the bound address once the listener is
up, and drains gracefully on exit::

    with BackgroundServer(Engine(cache=ArtifactCache(root))) as server:
        with ServiceClient(port=server.port) as client:
            client.ping()

Keyword arguments go to :class:`ServiceServer`: ``memcache_size=512``
sizes its text tier of answered values, in front of the engine's cache.

This is a harness, not a deployment mode — production runs
``python -m repro serve`` as the process's main (and only) loop.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from ..engine.jobs import Engine
from .server import ServiceServer


class BackgroundServer:
    """A service server with its own event loop on a daemon thread."""

    def __init__(self, engine: Engine, *, start_timeout: float = 30.0, **kwargs):
        kwargs.setdefault("port", 0)  # ephemeral unless the caller pins one
        self._engine = engine
        self._kwargs = kwargs
        self._start_timeout = start_timeout
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.server: Optional[ServiceServer] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )

    # ------------------------------------------------------------------
    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface startup failures to start()
            self._failure = exc
            self._ready.set()

    async def _main(self) -> None:
        server = ServiceServer(self._engine, **self._kwargs)
        await server.start()
        self.server = server
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await server.wait_stopped()

    # ------------------------------------------------------------------
    def start(self) -> "BackgroundServer":
        self._thread.start()
        if not self._ready.wait(self._start_timeout):
            raise TimeoutError("service server did not start in time")
        if self._failure is not None:
            raise RuntimeError("service server failed to start") from self._failure
        return self

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self) -> None:
        """Request a graceful drain and join the server thread."""
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_drain)
        self._thread.join(timeout=self._start_timeout)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

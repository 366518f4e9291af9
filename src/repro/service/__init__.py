"""The query service: a resident, coalescing server over the engine.

``repro.service`` turns the batch compute engine into a long-lived
serving process — the paper's FACT decision procedure (Theorems 15/16)
and its sibling queries as a network oracle:

* :mod:`~repro.service.protocol` — versioned line-delimited JSON
  schema with typed error codes; values travel as the engine's
  canonical serialization, so service responses are byte-identical to
  direct :class:`~repro.engine.jobs.Engine` calls;
* :mod:`~repro.service.memcache` — the text tier: a bounded LRU of
  answered value texts keyed by the exact request, so a repeat is
  answered without decoding it or touching the engine;
* :mod:`~repro.service.batcher` — dispatch-when-idle batching with
  in-flight request coalescing (N identical concurrent queries cost
  one computation);
* :mod:`~repro.service.server` — the asyncio line-protocol server:
  connection and in-flight limits, per-request deadlines, graceful
  drain on SIGTERM, live metrics;
* :mod:`~repro.service.client` — the blocking client, with the
  engine's typed calling conventions;
* :mod:`~repro.service.background` — a thread harness for tests,
  benchmarks and examples.

Entry points: ``python -m repro serve`` and ``python -m repro query``.
See ``docs/service.md`` for the protocol spec and deployment notes.
"""

from .background import BackgroundServer
from .batcher import Batcher
from .client import ServiceClient, ServiceError
from .memcache import MemCache
from .metrics import LatencyHistogram, Metrics
from .protocol import (
    ERROR_CODES,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    encode_message,
    error_response,
    parse_request,
    query_response,
    response_for_result,
)
from .server import DEFAULT_HOST, DEFAULT_PORT, ServiceServer

__all__ = [
    "BackgroundServer",
    "Batcher",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "ERROR_CODES",
    "LatencyHistogram",
    "MAX_LINE_BYTES",
    "MemCache",
    "Metrics",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "encode_message",
    "error_response",
    "parse_request",
    "query_response",
    "response_for_result",
]

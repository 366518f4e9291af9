"""Wire protocol v1: line-delimited JSON requests and responses.

One request is one JSON object on one line; the response is one JSON
object on one line.  Responses carry the request's ``id``, so a client
may pipeline requests on a single connection and match responses out of
order.

The *value* of a successful ``query`` is the engine's canonical
serialization (:func:`repro.engine.serialize.serialize`) of the job's
return value, embedded as a JSON string.  The service never re-encodes
results through a second codec, which is what makes service responses
byte-identical to direct :class:`~repro.engine.jobs.Engine` calls.

Request fields::

    {"v": 1, "id": 7, "op": "query", "kind": "solve",
     "payload": "<canonical text>", "timeout": 30.0}

* ``v``       — protocol version; must equal :data:`PROTOCOL_VERSION`.
* ``id``      — any JSON scalar; echoed verbatim in the response.
* ``op``      — ``query`` | ``stats`` | ``metrics`` | ``ping``.
* ``kind``    — (query only) an engine job kind from ``JOB_KINDS``.
  Dispatch is generic over the registry, so kinds added after v1 —
  ``certify`` (payload ``(affine, task, budget)``, value: a
  certificate document) and ``check`` (payload ``(cert,)``, value: a
  ``CheckReport`` dict) — work with no protocol change.  ``certify``
  returns budget overruns as resumable ``budget`` stubs in the value,
  never as a ``budget_exceeded`` error.
* ``payload`` — (query only) canonical serialization of the job's
  payload tuple.
* ``timeout`` — (query only, optional) per-request deadline in seconds;
  the server enforces ``min(timeout, server default)``.

Unknown request fields are ignored, so clients that still label
requests with fields this server does not read are served normally.

Response fields: ``v``, ``id``, ``ok``; on success one of ``value`` (+
``kind``, ``cache_hit``, ``coalesced``, ``wall_time``), ``stats``,
``text`` or ``pong``; on failure ``error = {"code", "message"}`` with a
code from :data:`ERROR_CODES` (plus ``nodes_explored`` for
``budget_exceeded``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

#: Version of the request/response schema.  Bump on any incompatible
#: change; servers reject other versions with ``unsupported_version``.
PROTOCOL_VERSION = 1

#: Hard cap on one request/response line (serialized affine tasks are
#: large; 16 MiB leaves generous headroom).
MAX_LINE_BYTES = 16 * 2**20

OPS = frozenset({"query", "stats", "metrics", "ping"})

#: Typed error codes — the complete, closed set a v1 server may return.
ERROR_CODES = frozenset(
    {
        "bad_request",  # unparsable line / missing or malformed fields
        "unsupported_version",  # request "v" != PROTOCOL_VERSION
        "unknown_op",  # "op" not in OPS
        "unknown_kind",  # query kind not in the engine registry
        "bad_payload",  # payload undecodable or not a tuple
        "job_error",  # the engine job raised; message has traceback
        "budget_exceeded",  # solve search budget exhausted after retry
        "timeout",  # per-request deadline expired
        "overloaded",  # connection or in-flight limit hit
        "shutting_down",  # server is draining; retry elsewhere
        "internal",  # unexpected server-side failure
    }
)

#: Codes a client may transparently retry once with jittered backoff:
#: both signal a transient condition on *this* server, not a problem
#: with the request itself.
RETRYABLE_CODES = frozenset({"overloaded", "shutting_down"})


class ProtocolError(Exception):
    """A request that cannot be served, with its wire error code."""

    def __init__(self, code: str, message: str):
        assert code in ERROR_CODES, code
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class Request:
    """A parsed, validated v1 request."""

    id: Any
    op: str
    kind: Optional[str] = None
    payload_text: Optional[str] = None
    timeout: Optional[float] = None


def parse_request(line: str) -> Request:
    """Parse one request line; raises :class:`ProtocolError` on misuse.

    Version and op are validated here; ``kind`` and the payload are
    validated by the server against the live engine registry, so the
    protocol module has no dependency on the engine.
    """
    try:
        fields = json.loads(line)
    except ValueError as exc:
        raise ProtocolError("bad_request", f"unparsable JSON: {exc}")
    if not isinstance(fields, dict):
        raise ProtocolError("bad_request", "request must be a JSON object")
    request_id = fields.get("id")
    version = fields.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "unsupported_version",
            f"protocol v{version!r} not supported (server speaks v{PROTOCOL_VERSION})",
        )
    op = fields.get("op")
    if op not in OPS:
        raise ProtocolError("unknown_op", f"unknown op {op!r}")
    kind = fields.get("kind")
    payload_text = fields.get("payload")
    timeout = fields.get("timeout")
    if op == "query":
        if not isinstance(kind, str):
            raise ProtocolError("bad_request", "query requires a string 'kind'")
        if not isinstance(payload_text, str):
            raise ProtocolError(
                "bad_request", "query requires a string 'payload'"
            )
        if timeout is not None:
            if not isinstance(timeout, (int, float)) or timeout <= 0:
                raise ProtocolError(
                    "bad_request", "'timeout' must be a positive number"
                )
    return Request(
        id=request_id,
        op=op,
        kind=kind,
        payload_text=payload_text,
        timeout=None if timeout is None else float(timeout),
    )


# ----------------------------------------------------------------------
# Response constructors
# ----------------------------------------------------------------------
def _base(request_id: Any, ok: bool) -> Dict[str, Any]:
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": ok}


def query_response(
    request_id: Any,
    kind: str,
    value_text: str,
    *,
    cache_hit: bool = False,
    coalesced: bool = False,
    wall_time: float = 0.0,
) -> Dict[str, Any]:
    response = _base(request_id, True)
    response.update(
        kind=kind,
        value=value_text,
        cache_hit=bool(cache_hit),
        coalesced=bool(coalesced),
        wall_time=round(float(wall_time), 6),
    )
    return response


def stats_response(request_id: Any, stats: Dict[str, Any]) -> Dict[str, Any]:
    response = _base(request_id, True)
    response["stats"] = stats
    return response


def metrics_response(request_id: Any, text: str) -> Dict[str, Any]:
    response = _base(request_id, True)
    response["text"] = text
    return response


def ping_response(request_id: Any) -> Dict[str, Any]:
    response = _base(request_id, True)
    response["pong"] = True
    return response


def error_response(
    request_id: Any,
    code: str,
    message: str,
    *,
    nodes_explored: Optional[int] = None,
) -> Dict[str, Any]:
    assert code in ERROR_CODES, code
    response = _base(request_id, False)
    response["error"] = {"code": code, "message": message}
    if nodes_explored is not None:
        response["error"]["nodes_explored"] = nodes_explored
    return response


def response_for_result(request_id: Any, result, value_text: Optional[str]):
    """The wire response for an engine :class:`JobResult`.

    ``value_text`` is the canonical serialization of ``result.value``
    (serialized by the caller so it can happen off the event loop);
    ignored for error results.
    """
    if result.ok:
        return query_response(
            request_id,
            result.kind,
            value_text if value_text is not None else "",
            cache_hit=result.cache_hit,
            coalesced=result.coalesced,
            wall_time=result.wall_time,
        )
    if result.error == "budget":
        return error_response(
            request_id,
            "budget_exceeded",
            "node budget exceeded after split-retry",
            nodes_explored=result.nodes_explored or 0,
        )
    return error_response(request_id, "job_error", result.error)


def encode_message(message: Dict[str, Any]) -> str:
    """One deterministic wire line (no trailing newline) for a message."""
    return json.dumps(
        message, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )

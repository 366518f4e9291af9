"""The service client: a blocking line-protocol socket client.

:class:`ServiceClient` speaks protocol v1 with the calling convention
of the engine's typed batch API: payloads are ordinary Python values,
canonically serialized client-side (:mod:`repro.engine.serialize`), and
a successful query's value is deserialized back — so
``client.solve(L, T)`` returns exactly what
``Engine().solve_many([(L, T, None)])[0]`` returns.

Protocol-level failures raise :class:`ServiceError` carrying the typed
wire code — except ``budget_exceeded``, which is translated back into
the engine's own :class:`~repro.tasks.solvability.SearchBudgetExceeded`
so callers can keep one error-handling path for local and remote
engines.

Transient conditions — ``overloaded`` and ``shutting_down`` — are
retried once with jittered backoff on a *fresh* connection before the
error surfaces: both codes mean "this server, right now", so an
immediate re-ask is exactly the thundering herd that caused them, and
a brief randomized pause plus a reconnect (the draining server may
have closed the socket) usually lands the retry.  Pass ``retries=0``
to observe the raw first answer.
"""

from __future__ import annotations

import json
import random
import socket
import time
from typing import Any, Dict, Optional, Tuple

from ..engine.serialize import deserialize, serialize
from ..tasks.solvability import SearchBudgetExceeded
from .protocol import PROTOCOL_VERSION, RETRYABLE_CODES
from .server import DEFAULT_HOST, DEFAULT_PORT

#: Base pause before the single transparent retry; the actual pause is
#: jittered uniformly over [0.5x, 1.5x] so simultaneous victims of one
#: overload don't re-arrive as a second synchronized burst.
DEFAULT_RETRY_BACKOFF = 0.05


def _jittered(backoff: float, rng: random.Random) -> float:
    return backoff * (0.5 + rng.random())


class ServiceError(RuntimeError):
    """A typed error response from the service."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


def _raise_for(response: Dict[str, Any]) -> Dict[str, Any]:
    if response.get("ok"):
        return response
    error = response.get("error") or {}
    code = error.get("code", "internal")
    message = error.get("message", "unknown error")
    if code == "budget_exceeded":
        raise SearchBudgetExceeded(
            message, nodes_explored=error.get("nodes_explored", 0)
        )
    raise ServiceError(code, message)


class ServiceClient:
    """Blocking line-protocol client (one request in flight at a time)."""

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        timeout: Optional[float] = 60.0,
        *,
        retries: int = 1,
        retry_backoff: float = DEFAULT_RETRY_BACKOFF,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = max(0, retries)
        self.retry_backoff = retry_backoff
        #: Transparent retries performed over this client's lifetime.
        self.retried = 0
        self._rng = random.Random()
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._next_id = 0

    # -- transport -----------------------------------------------------
    def _reconnect(self) -> None:
        self.close()
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._file = self._sock.makefile("rwb")

    def _roundtrip(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self._file.write(json.dumps(message).encode("utf-8") + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """One raw request/response cycle; raises on error responses.

        ``overloaded`` / ``shutting_down`` answers are retried once
        (per :data:`RETRYABLE_CODES`) after a jittered pause, on a
        fresh connection.
        """
        for attempt in range(self.retries + 1):
            self._next_id += 1
            message = {"v": PROTOCOL_VERSION, "id": self._next_id, "op": op}
            message.update(fields)
            response = self._roundtrip(message)
            if (
                not response.get("ok")
                and attempt < self.retries
                and (response.get("error") or {}).get("code")
                in RETRYABLE_CODES
            ):
                self.retried += 1
                time.sleep(_jittered(self.retry_backoff, self._rng))
                self._reconnect()
                continue
            if response.get("id") not in (None, self._next_id):
                raise ServiceError(
                    "internal",
                    f"response id mismatch: {response.get('id')!r}",
                )
            return _raise_for(response)
        raise AssertionError("unreachable")  # pragma: no cover

    def query_response(
        self, kind: str, payload: tuple, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """The full wire response for one query (value still encoded)."""
        fields: Dict[str, Any] = {"kind": kind, "payload": serialize(payload)}
        if timeout is not None:
            fields["timeout"] = timeout
        return self.request("query", **fields)

    def query(
        self, kind: str, payload: tuple, timeout: Optional[float] = None
    ) -> Any:
        """One query; returns the decoded engine value."""
        return self._decode_value(self.query_response(kind, payload, timeout))

    @staticmethod
    def _decode_value(response: Dict[str, Any]) -> Any:
        return deserialize(response["value"])

    # -- typed helpers -------------------------------------------------
    def chr(self, n: int, depth: int) -> Any:
        return self.query("chr", (n, depth))

    def classify(self, adversary) -> Any:
        return self.query("classify", (adversary,))

    def r_affine(self, alpha, variant: Optional[str] = None) -> Any:
        if variant is None:
            from ..core.ra import DEFAULT_VARIANT

            variant = DEFAULT_VARIANT
        return self.query("r_affine", (alpha, variant))

    def solve(
        self,
        affine,
        task,
        budget: Optional[int] = None,
    ) -> Tuple[Optional[Dict], int]:
        return self.query("solve", (affine, task, budget, None))

    def certify(
        self,
        affine,
        task,
        budget: Optional[int] = None,
    ) -> Dict[str, Any]:
        """One certified FACT query; returns the certificate document.

        Budget overruns come back as resumable ``budget`` stubs, not as
        :class:`SearchBudgetExceeded` — the stub is the query's value.
        """
        return self.query("certify", (affine, task, budget))

    def check(self, cert: Dict[str, Any]) -> Dict[str, Any]:
        """Server-side certificate check; returns the report dict.

        Convenience only — the certificate format is designed so any
        holder can run :func:`repro.certify.check` locally instead.
        """
        return self.query("check", (cert,))

    def fuzz(self, alpha, affine, case_seed: int) -> Tuple[bool, int]:
        return self.query("fuzz", (alpha, affine, case_seed))

    def simulate(
        self,
        protocol: str,
        adversary=None,
        *,
        n: int = 3,
        t: int = 0,
        k: int = 1,
        schedules: int = 4,
        seed: int = 7,
    ) -> Dict[str, Any]:
        """Explore one protocol under generated fault plans (repro.sim)."""
        return self.query(
            "simulate", (protocol, adversary, n, t, k, schedules, seed)
        )

    def oracle(
        self,
        protocol: str,
        adversary=None,
        *,
        n: int = 3,
        t: int = 0,
        k: int = 1,
        schedules: int = 4,
        seed: int = 7,
    ) -> Dict[str, Any]:
        """Differential simulator-versus-reference check for one pair."""
        return self.query(
            "oracle", (protocol, adversary, n, t, k, schedules, seed)
        )

    def ping(self) -> bool:
        return bool(self.request("ping").get("pong"))

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")["stats"]

    def metrics_text(self) -> str:
        return self.request("metrics")["text"]

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


"""The query service: protocol, equivalence, coalescing, drain, retry.

The load-bearing guarantees:

* every job kind's response value is **byte-identical** to the engine's
  canonical serialization of a direct call;
* N concurrent clients issuing the same query cost exactly **one**
  engine computation;
* SIGTERM / ``drain()`` lets in-flight requests finish before exit.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional

import pytest

from repro.adversaries import figure5b_adversary
from repro.core.ra import DEFAULT_VARIANT
from repro.engine import Engine, JobSpec, serialize
from repro.runtime.algorithm1 import fuzz_case_seed
from repro.service import (
    AsyncServiceClient,
    BackgroundServer,
    MemCache,
    ProtocolError,
    ServiceClient,
    ServiceError,
    parse_request,
)
from repro.service.protocol import ERROR_CODES, RETRYABLE_CODES
from repro.solver import SolveRequest
from repro.tasks.set_consensus import set_consensus_task
from repro.tasks.solvability import MapSearch, SearchBudgetExceeded

REPO_ROOT = Path(__file__).resolve().parent.parent


def _raw_request(port: int, line: bytes) -> dict:
    """One raw line on a fresh connection; returns the parsed response."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        handle = sock.makefile("rwb")
        handle.write(line)
        handle.flush()
        return json.loads(handle.readline())


# ----------------------------------------------------------------------
# Protocol unit tests (no server)
# ----------------------------------------------------------------------
def test_parse_request_rejects_malformed_lines():
    with pytest.raises(ProtocolError) as info:
        parse_request("{not json")
    assert info.value.code == "bad_request"
    with pytest.raises(ProtocolError) as info:
        parse_request('{"v": 2, "op": "ping"}')
    assert info.value.code == "unsupported_version"
    with pytest.raises(ProtocolError) as info:
        parse_request('{"v": 1, "op": "dance"}')
    assert info.value.code == "unknown_op"
    with pytest.raises(ProtocolError) as info:
        parse_request('{"v": 1, "op": "query", "kind": "chr"}')
    assert info.value.code == "bad_request"  # missing payload
    with pytest.raises(ProtocolError) as info:
        parse_request(
            '{"v": 1, "op": "query", "kind": "chr", "payload": "x", "timeout": -1}'
        )
    assert info.value.code == "bad_request"


def test_parse_request_round_trip():
    line = '{"v": 1, "id": 9, "op": "query", "kind": "chr", "payload": "p", "timeout": 2'
    # Older clients still label requests with tenant/priority; unknown
    # fields are ignored, so those requests parse to the same value.
    labelled = ', "tenant": "bench", "priority": "interactive"'
    for extra in ("", labelled):
        request = parse_request(line + extra + "}")
        assert request.id == 9
        assert request.kind == "chr"
        assert request.timeout == 2.0


# ----------------------------------------------------------------------
# A shared server for read-mostly tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server():
    engine = Engine(cache=MemCache())
    with BackgroundServer(engine, window=0.002) as background:
        yield background


@pytest.fixture()
def client(server):
    with ServiceClient(port=server.port) as active:
        yield active


def test_ping_and_stats_round_trip(client):
    assert client.ping()
    assert client.request("ping", tenant="bench", priority="sweep")["pong"]
    stats = client.stats()
    assert stats["server"]["connections"] >= 1
    assert stats["engine"]["jobs"] == 1
    assert stats["memcache"]["max_entries"] == 256
    assert "requests_total" in stats["metrics"]["counters"]
    assert "repro_service_uptime_seconds" in client.metrics_text()


# ----------------------------------------------------------------------
# Byte-identical equivalence for every job kind (the acceptance test)
# ----------------------------------------------------------------------
def test_every_kind_is_byte_identical_to_direct_engine_calls(
    client, alpha_1of, ra_1of, alpha_1res, ra_1res
):
    task23 = set_consensus_task(3, 2)
    payloads = {
        "chr": (3, 1),
        "classify": (figure5b_adversary(),),
        "r_affine": (alpha_1of, DEFAULT_VARIANT),
        # Typed request payload: exercises the ``solvereq`` codec over
        # the wire end-to-end (legacy tuple payloads are covered by the
        # client helpers and the deprecation-shim tests).
        "solve": (SolveRequest(affine=ra_1res, task=task23),),
        "fuzz": (alpha_1res, ra_1res, fuzz_case_seed(0, 0)),
    }
    for kind, payload in payloads.items():
        direct_value = JobSpec(kind, payload).run()
        response = client.query_response(kind, payload)
        assert response["ok"], (kind, response)
        assert response["kind"] == kind
        assert response["value"] == serialize(direct_value), kind
        assert client._decode_value(response) == direct_value


def test_repeated_query_hits_the_memcache(client):
    first = client.query_response("chr", (2, 1))
    again = client.query_response("chr", (2, 1))
    assert again["value"] == first["value"]
    assert again["cache_hit"]


def test_simulate_and_oracle_helpers(client):
    from repro.sim import oracle_params, simulate_params

    report = client.simulate(
        "bosco-weak-agreement", n=4, t=1, schedules=2
    )
    assert report == simulate_params(
        "bosco-weak-agreement", None, 4, 1, 1, 2, 7
    )
    assert report["pass"]

    verdict = client.oracle("reliable-broadcast", n=3, t=1, schedules=2)
    assert verdict == oracle_params(
        "reliable-broadcast", None, 3, 1, 1, 2, 7
    )
    assert verdict["agree"] and not verdict["reference"]["solvable"]


# ----------------------------------------------------------------------
# Coalescing
# ----------------------------------------------------------------------
def test_concurrent_identical_sleeps_coalesce_to_one_execution():
    engine = Engine(cache=MemCache())
    with BackgroundServer(engine, window=0.02) as background:

        async def fire():
            clients = [
                await AsyncServiceClient(port=background.port).connect()
                for _ in range(6)
            ]
            try:
                return await asyncio.gather(
                    *[
                        active.query_response("sleep", (0.5, "shared"))
                        for active in clients
                    ]
                )
            finally:
                for active in clients:
                    await active.close()

        responses = asyncio.run(fire())
        assert all(response["ok"] for response in responses)
        assert sorted(r["coalesced"] for r in responses) == [False] + [True] * 5
        metrics = background.server.metrics
        assert metrics.counter("jobs_dispatched_total") == 1
        assert metrics.counter("coalesced_total") == 5


def test_concurrent_identical_solves_compute_once(ra_1res):
    """N clients, one solve query: exactly one engine computation."""
    task23 = set_consensus_task(3, 2)
    engine = Engine(cache=MemCache())
    with BackgroundServer(engine, window=0.05) as background:

        async def fire():
            clients = [
                await AsyncServiceClient(port=background.port).connect()
                for _ in range(5)
            ]
            try:
                return await asyncio.gather(
                    *[active.solve(ra_1res, task23) for active in clients]
                )
            finally:
                for active in clients:
                    await active.close()

        answers = asyncio.run(fire())
        expected = Engine().solve_many([(ra_1res, task23, None)])[0]
        assert all(answer == expected for answer in answers)
        # One full cache miss == one computation; every other request
        # was coalesced onto it or answered from the memcache.
        assert engine.stats()["misses"] == 1


def _permuted(encoded, rng):
    """An encoding with set members, dict pairs and table rows reordered."""
    if not isinstance(encoded, list):
        return encoded
    members = [_permuted(member, rng) for member in encoded]
    if members and members[0] in ("fset", "dict", "ccx", "scx"):
        rng.shuffle(members[1])
    elif members and members[0] == "task":
        rng.shuffle(members[3])
    return members


def test_non_canonical_payload_text_gets_the_canonical_value(client, ra_1res):
    """In-flight coalescing keys on the exact text; the value does not."""
    task23 = set_consensus_task(3, 2)
    search = MapSearch(ra_1res, task23)
    overrides = {
        vertex: tuple(search.domains[vertex]) for vertex in search.vertices[:3]
    }
    canonical = serialize((ra_1res, task23, None, overrides))
    encoded = json.loads(canonical)
    shuffled = _permuted(encoded, random.Random(7))
    # Facets (sets of vertices) and the overrides' dict pairs both moved.
    assert shuffled[1][0][4][1] != encoded[1][0][4][1]
    assert shuffled[1][3][1] != encoded[1][3][1]
    permuted = json.dumps(shuffled, separators=(",", ":"))
    answers = [
        client.request("query", kind="solve", payload=text)
        for text in (permuted, canonical)
    ]
    assert answers[0]["value"] == answers[1]["value"]
    direct = JobSpec(
        "solve", (SolveRequest(ra_1res, task23, domain_overrides=overrides),)
    ).run()
    assert answers[0]["value"] == serialize(direct)
    # Equal values share the engine's content address: the second,
    # differently written request is a cache hit.
    assert [answer["cache_hit"] for answer in answers] == [False, True]


# ----------------------------------------------------------------------
# Deadlines, errors, limits
# ----------------------------------------------------------------------
def test_per_request_timeout_returns_typed_error(client):
    with pytest.raises(ServiceError) as info:
        client.query("sleep", (3.0, "late"), timeout=0.2)
    assert info.value.code == "timeout"
    # The connection stays usable after a timed-out request.
    assert client.ping()


def test_wire_error_codes(server, client, ra_1of):
    assert _raw_request(server.port, b"{broken\n")["error"]["code"] == "bad_request"
    assert (
        _raw_request(server.port, b'{"v": 99, "op": "ping"}\n')["error"]["code"]
        == "unsupported_version"
    )
    with pytest.raises(ServiceError) as info:
        client.query("no_such_kind", (1,))
    assert info.value.code == "unknown_kind"
    with pytest.raises(ServiceError) as info:
        client.request("query", kind="chr", payload="]not canonical[")
    assert info.value.code == "bad_payload"
    with pytest.raises(ServiceError) as info:
        client.request("query", kind="chr", payload=serialize([3, 1]))
    assert info.value.code == "bad_payload"  # decodes, but not a tuple
    # A typed solve naming an unknown kernel ("symmetry" was removed)
    # does not decode.
    text = serialize(
        (SolveRequest(affine=ra_1of, task=set_consensus_task(3, 2)),)
    )
    assert text.count('"bitset"') == 1
    with pytest.raises(ServiceError) as info:
        client.request(
            "query", kind="solve", payload=text.replace('"bitset"', '"symmetry"')
        )
    assert info.value.code == "bad_payload"
    with pytest.raises(ServiceError) as info:
        client.query("chr", (3, "not-a-depth"))
    assert info.value.code == "job_error"


def test_budget_exceeded_maps_back_to_the_engine_exception(ra_1res):
    engine = Engine(cache=MemCache(), split_retries=0)
    with BackgroundServer(engine) as background:
        with ServiceClient(port=background.port) as active:
            with pytest.raises(SearchBudgetExceeded) as info:
                active.solve(ra_1res, set_consensus_task(3, 2), budget=5)
            assert info.value.nodes_explored > 0


def test_connection_limit_returns_overloaded():
    engine = Engine(cache=MemCache())
    with BackgroundServer(engine, max_connections=1) as background:
        with ServiceClient(port=background.port) as first:
            assert first.ping()
            response = _raw_request(
                background.port, b'{"v": 1, "op": "ping"}\n'
            )
            assert response["error"]["code"] == "overloaded"


# ----------------------------------------------------------------------
# HTTP shim
# ----------------------------------------------------------------------
def test_http_shim_metrics_stats_health_and_query(server, client):
    import urllib.request

    client.ping()  # ensure at least one counter exists
    base = f"http://127.0.0.1:{server.port}"
    metrics = urllib.request.urlopen(f"{base}/metrics", timeout=30).read()
    assert b"repro_service_requests_total" in metrics
    stats = json.loads(urllib.request.urlopen(f"{base}/stats", timeout=30).read())
    assert stats["server"]["port"] == server.port
    health = json.loads(
        urllib.request.urlopen(f"{base}/healthz", timeout=30).read()
    )
    assert health["status"] == "ok"
    assert health["protocol_version"] == 1
    assert health["memcache_capacity"] == 256
    body = json.dumps(
        {"v": 1, "id": 1, "op": "query", "kind": "chr", "payload": serialize((2, 1))}
    ).encode()
    reply = json.loads(
        urllib.request.urlopen(
            urllib.request.Request(f"{base}/query", data=body, method="POST"),
            timeout=30,
        ).read()
    )
    assert reply["ok"] and reply["value"] == serialize(JobSpec("chr", (2, 1)).run())
    with pytest.raises(urllib.error.HTTPError):
        urllib.request.urlopen(f"{base}/nope", timeout=30)


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
def test_drain_completes_inflight_requests_then_refuses_connections():
    engine = Engine(cache=MemCache())
    background = BackgroundServer(engine, drain_grace=10.0).start()
    port = background.port
    outcome = {}

    def slow_query():
        with ServiceClient(port=port) as active:
            outcome["response"] = active.query_response("sleep", (1.0, "drained"))

    worker = threading.Thread(target=slow_query)
    worker.start()
    time.sleep(0.3)  # request is in flight
    background.stop()  # graceful drain
    worker.join(timeout=30)
    assert outcome["response"]["ok"]
    assert json.loads(outcome["response"]["value"]) == "drained"
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", port), timeout=5)


def test_sigterm_drains_the_serve_subprocess():
    """``python -m repro serve`` + SIGTERM: in-flight work finishes, exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--no-cache"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        announce = process.stdout.readline()
        port = int(re.search(r":(\d+) ", announce).group(1))
        outcome = {}

        def slow_query():
            with ServiceClient(port=port) as active:
                outcome["value"] = active.query("sleep", (1.0, "survived"))

        worker = threading.Thread(target=slow_query)
        worker.start()
        time.sleep(0.4)
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=60)
        worker.join(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
    assert process.returncode == 0
    assert outcome["value"] == "survived"
    assert "drained cleanly" in output


# ----------------------------------------------------------------------
# Scripted wire servers (protocol doubles; no engine behind them)
# ----------------------------------------------------------------------
class ScriptedServer:
    """A threaded line-protocol server answering from a callback."""

    def __init__(self, respond: Callable[[Dict[str, Any]], Optional[dict]]):
        self.respond = respond
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(16)
        self.port = self._sock.getsockname()[1]
        self._running = True
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while self._running:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            ).start()

    def _serve(self, conn: socket.socket) -> None:
        handle = conn.makefile("rwb")
        try:
            while True:
                line = handle.readline()
                if not line:
                    return
                response = self.respond(json.loads(line))
                if response is None:
                    return  # scripted connection drop
                handle.write(json.dumps(response).encode("utf-8") + b"\n")
                handle.flush()
        except (ConnectionResetError, BrokenPipeError, ValueError):
            pass
        finally:
            conn.close()

    def close(self) -> None:
        self._running = False
        self._sock.close()

    def __enter__(self) -> "ScriptedServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _ok(request: Dict[str, Any]) -> Dict[str, Any]:
    return {"v": 1, "id": request.get("id"), "ok": True, "pong": True}


def _error(request: Dict[str, Any], code: str) -> Dict[str, Any]:
    return {
        "v": 1,
        "id": request.get("id"),
        "ok": False,
        "error": {"code": code, "message": f"scripted {code}"},
    }


# ----------------------------------------------------------------------
# Client retry of transient codes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("code", sorted(RETRYABLE_CODES))
def test_sync_client_retries_transient_codes_once(code):
    answers = {"count": 0}

    def respond(request):
        answers["count"] += 1
        return _error(request, code) if answers["count"] == 1 else _ok(request)

    with ScriptedServer(respond) as server:
        with ServiceClient(
            port=server.port, retries=1, retry_backoff=0.01
        ) as client:
            assert client.ping()
            assert client.retried == 1


@pytest.mark.parametrize("code", sorted(RETRYABLE_CODES))
def test_async_client_retries_transient_codes_once(code):
    answers = {"count": 0}

    def respond(request):
        answers["count"] += 1
        return _error(request, code) if answers["count"] == 1 else _ok(request)

    async def scenario(port: int) -> int:
        async with AsyncServiceClient(
            port=port, retries=1, retry_backoff=0.01
        ) as client:
            assert await client.ping()
            return client.retried

    with ScriptedServer(respond) as server:
        assert asyncio.run(scenario(server.port)) == 1


def test_clients_with_retries_zero_surface_the_raw_error():
    with ScriptedServer(lambda r: _error(r, "overloaded")) as server:
        with ServiceClient(port=server.port, retries=0) as client:
            with pytest.raises(ServiceError) as info:
                client.ping()
            assert info.value.code == "overloaded"

        async def scenario() -> None:
            async with AsyncServiceClient(
                port=server.port, retries=0
            ) as client:
                await client.ping()

        with pytest.raises(ServiceError) as info:
            asyncio.run(scenario())
        assert info.value.code == "overloaded"


def test_sync_client_does_not_retry_permanent_codes():
    answers = {"count": 0}

    def respond(request):
        answers["count"] += 1
        return _error(request, "bad_request")

    with ScriptedServer(respond) as server:
        with ServiceClient(port=server.port, retries=1) as client:
            with pytest.raises(ServiceError):
                client.ping()
            assert client.retried == 0 and answers["count"] == 1


# ----------------------------------------------------------------------
# Every typed error code round-trips through both clients
# ----------------------------------------------------------------------
@pytest.mark.parametrize("code", sorted(ERROR_CODES))
def test_every_error_code_round_trips_through_the_sync_client(code):
    with ScriptedServer(lambda r: _error(r, code)) as server:
        with ServiceClient(port=server.port, retries=0) as client:
            if code == "budget_exceeded":
                with pytest.raises(SearchBudgetExceeded):
                    client.ping()
            else:
                with pytest.raises(ServiceError) as info:
                    client.ping()
                assert info.value.code == code


@pytest.mark.parametrize("code", sorted(ERROR_CODES))
def test_every_error_code_round_trips_through_the_async_client(code):
    async def scenario(port: int) -> None:
        async with AsyncServiceClient(port=port, retries=0) as client:
            await client.ping()

    with ScriptedServer(lambda r: _error(r, code)) as server:
        if code == "budget_exceeded":
            with pytest.raises(SearchBudgetExceeded):
                asyncio.run(scenario(server.port))
        else:
            with pytest.raises(ServiceError) as info:
                asyncio.run(scenario(server.port))
            assert info.value.code == code

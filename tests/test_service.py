"""The query service: protocol, equivalence, coalescing, drain, retry.

The load-bearing guarantees:

* every job kind's response value is **byte-identical** to the engine's
  canonical serialization of a direct call;
* N concurrent clients issuing the same query cost exactly **one**
  engine computation;
* a repeated query is answered from the server's text tier with the
  same bytes, without touching the engine, and only ``ok`` answers are
  stored there;
* SIGTERM / ``drain()`` lets in-flight requests finish before exit.
"""

from __future__ import annotations

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

from repro.adversaries import figure5b_adversary, t_resilience_alpha
from repro.core.ra import DEFAULT_VARIANT
from repro.engine import ArtifactCache, Engine, JobSpec, serialize
from repro.runtime.algorithm1 import fuzz_case_seed
from repro.service import (
    BackgroundServer,
    ProtocolError,
    ServiceClient,
    ServiceError,
    parse_request,
)
from repro.service.protocol import ERROR_CODES, RETRYABLE_CODES
from repro.solver import SolveRequest
from repro.solver.api import as_solve_request
from repro.tasks.set_consensus import set_consensus_task
from repro.tasks.solvability import MapSearch, SearchBudgetExceeded

REPO_ROOT = Path(__file__).resolve().parent.parent


def _barrier_start(port: int, queries) -> list:
    """Each ``query(client)`` on its own connection, all started at once.

    Every thread connects first and then waits at one barrier, so the
    requests reach the server as close together as threads allow.
    Returns the answers in ``queries`` order (``None`` where a thread
    failed).
    """
    barrier = threading.Barrier(len(queries))
    answers: list = [None] * len(queries)

    def run(index, query):
        with ServiceClient(port=port) as active:
            barrier.wait(timeout=60)
            answers[index] = query(active)

    threads = [
        threading.Thread(target=run, args=item) for item in enumerate(queries)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    return answers


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
def server(tmp_path_factory):
    engine = Engine(cache=ArtifactCache(tmp_path_factory.mktemp("disk-tier")))
    with BackgroundServer(engine) as background:
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
    before = client.stats()
    again = client.query_response("chr", (2, 1))
    after = client.stats()
    assert again["value"] == first["value"]
    assert again["cache_hit"] and not again["coalesced"]
    assert after["memcache"]["hits"] == before["memcache"]["hits"] + 1
    # Answered from the text tier: the engine and batcher never saw it.
    assert after["engine"] == before["engine"]
    counters = before["metrics"]["counters"], after["metrics"]["counters"]
    assert counters[1]["batches_total"] == counters[0]["batches_total"]


def test_text_tier_hits_are_byte_identical_to_an_in_process_engine(
    server, ra_1res
):
    """solve, certify and check: the repeat is a tier hit, same bytes."""
    task = set_consensus_task(3, 2)
    direct = Engine()
    with ServiceClient(port=server.port) as active:
        cert = active.certify(ra_1res, task)
        payloads = {
            "solve": (ra_1res, task, None, None),
            "certify": (ra_1res, task, None),
            "check": (cert,),
        }
        for kind, payload in payloads.items():
            spec_payload = payload
            if kind == "solve":
                spec_payload = (as_solve_request(payload, warn=False),)
            (result,) = direct.run_jobs([JobSpec(kind, spec_payload)])
            expected = serialize(result.value)
            first = active.query_response(kind, payload)
            hits = active.stats()["memcache"]["hits"]
            again = active.query_response(kind, payload)
            assert first["value"] == again["value"] == expected, kind
            assert again["cache_hit"] and not again["coalesced"], kind
            assert active.stats()["memcache"]["hits"] == hits + 1, kind


def test_simulate_and_oracle_helpers(client):
    from repro.adversaries.catalogue import catalogue_by_name
    from repro.sim import oracle_params, simulate_params

    adversary = catalogue_by_name(3)["1-resilient"]
    report = client.query("simulate", (adversary, 2, 2, 7))
    assert report == simulate_params(adversary, 2, 2, 7)
    assert report["pass"]

    verdict = client.query("oracle", (adversary, 1, 2, 7))
    assert verdict == oracle_params(adversary, 1, 2, 7)
    assert verdict["agree"] and not verdict["reference"]["solvable"]


# ----------------------------------------------------------------------
# Coalescing
# ----------------------------------------------------------------------
def test_concurrent_identical_sleeps_coalesce_to_one_execution(sleep_kind):
    engine = Engine()
    with BackgroundServer(engine) as background:
        responses = _barrier_start(
            background.port,
            [lambda active: active.query_response("sleep", (0.5, "shared"))]
            * 6,
        )
        assert all(response["ok"] for response in responses)
        assert sorted(r["coalesced"] for r in responses) == [False] + [True] * 5
        metrics = background.server.metrics
        assert metrics.counter("jobs_dispatched_total") == 1
        assert metrics.counter("coalesced_total") == 5


def test_concurrent_identical_solves_compute_once(ra_1res):
    """N clients, one solve query: exactly one engine computation."""
    task23 = set_consensus_task(3, 2)
    engine = Engine()
    with BackgroundServer(engine) as background:
        answers = _barrier_start(
            background.port,
            [lambda active: active.solve(ra_1res, task23)] * 5,
        )
        expected = Engine().solve_many([(ra_1res, task23, None)])[0]
        assert all(answer == expected for answer in answers)
        # One full cache miss == one computation; every other request
        # was coalesced onto it or answered from the memcache.
        assert engine.stats()["misses"] == 1


def test_misses_arriving_during_a_batch_leave_together_as_the_next(sleep_kind):
    """Dispatch when idle: misses that wait on a running batch share one."""
    tokens = ("a", "b", "c", "d")
    with BackgroundServer(Engine()) as background:
        metrics = background.server.metrics
        answers = {}

        def ask(token, seconds):
            with ServiceClient(port=background.port) as active:
                answers[token] = active.query("sleep", (seconds, token))

        threads = [threading.Thread(target=ask, args=("head", 1.0))]
        threads[0].start()
        deadline = time.monotonic() + 10
        while (
            metrics.counter("batches_total") < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        # The head batch is running; four distinct cold queries arrive
        # one after another, spaced well apart.
        for token in tokens:
            threads.append(threading.Thread(target=ask, args=(token, 0.05)))
            threads[-1].start()
            time.sleep(0.05)
        for thread in threads:
            thread.join(timeout=30)
        assert answers == {token: token for token in ("head",) + tokens}
        assert metrics.counter("batches_total") == 2
        assert metrics.counter("jobs_dispatched_total") == 5


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
    answers, tier_misses, disk_hits = [], [], []
    for text in (canonical, permuted):
        before = client.stats()
        answers.append(client.request("query", kind="solve", payload=text))
        after = client.stats()
        tier_misses.append(
            after["memcache"]["misses"] - before["memcache"]["misses"]
        )
        disk_hits.append(after["engine"]["hits"] - before["engine"]["hits"])
    assert answers[0]["value"] == answers[1]["value"]
    direct = JobSpec(
        "solve", (SolveRequest(ra_1res, task23, domain_overrides=overrides),)
    ).run()
    assert answers[0]["value"] == serialize(direct)
    # The permuted text is a different request, so it misses the text
    # tier; equal values share the engine's content address, so the
    # disk tier answers it with the same bytes.
    assert tier_misses == [1, 1]
    assert disk_hits == [0, 1]
    assert [answer["cache_hit"] for answer in answers] == [False, True]


# ----------------------------------------------------------------------
# Deadlines, errors, limits
# ----------------------------------------------------------------------
def test_per_request_timeout_returns_typed_error(client, sleep_kind):
    with pytest.raises(ServiceError) as info:
        client.query("sleep", (3.0, "late"), timeout=0.2)
    assert info.value.code == "timeout"
    # The connection stays usable after a timed-out request.
    assert client.ping()


def test_wire_error_codes(server, client, ra_1of):
    # An HTTP request line is one more malformed protocol line.
    for line in (b"{broken\n", b"GET /metrics HTTP/1.1\r\n"):
        assert _raw_request(server.port, line)["error"]["code"] == "bad_request"
    assert (
        _raw_request(server.port, b'{"v": 99, "op": "ping"}\n')["error"]["code"]
        == "unsupported_version"
    )
    # ``crash`` and ``sleep`` name no job kind: the server has none that
    # ends it or holds its dispatch thread.
    for kind in ("no_such_kind", "crash", "sleep"):
        with pytest.raises(ServiceError) as info:
            client.query(kind, (3,))
        assert info.value.code == "unknown_kind"
        assert client.ping()
    with pytest.raises(ServiceError) as info:
        client.request("query", kind="chr", payload="]not canonical[")
    assert info.value.code == "bad_payload"
    with pytest.raises(ServiceError) as info:
        client.request("query", kind="chr", payload=serialize([3, 1]))
    assert info.value.code == "bad_payload"  # decodes, but not a tuple
    # A typed solve in the old 7-element form, which named a kernel in
    # its last slot, and in the old 6-element form, which carried a
    # resume prefix there, does not decode.
    text = serialize(
        (SolveRequest(affine=ra_1of, task=set_consensus_task(3, 2)),)
    )
    assert text.endswith(",null,null]]]")
    for old_tail in (',null,"bitset"]]]', ",null]]]"):
        with pytest.raises(ServiceError) as info:
            client.request(
                "query", kind="solve", payload=text[:-3] + old_tail
            )
        assert info.value.code == "bad_payload"
    # Nor does a positional solve payload with the old fifth (resume)
    # slot; the 4-tuple is the wire form.
    with pytest.raises(ServiceError) as info:
        client.query(
            "solve", (ra_1of, set_consensus_task(3, 2), None, None, None)
        )
    assert info.value.code == "bad_payload"
    mapping, _ = client.query(
        "solve", (ra_1of, set_consensus_task(3, 2), None, None)
    )
    assert mapping is not None
    with pytest.raises(ServiceError) as info:
        client.query("chr", (3, "not-a-depth"))
    assert info.value.code == "job_error"


def test_budget_exceeded_maps_back_to_the_engine_exception(ra_1res):
    engine = Engine(split_retries=0)
    with BackgroundServer(engine) as background:
        with ServiceClient(port=background.port) as active:
            with pytest.raises(SearchBudgetExceeded) as info:
                active.solve(ra_1res, set_consensus_task(3, 2), budget=5)
            assert info.value.nodes_explored > 0


def test_error_answers_are_never_stored(ra_1res):
    """budget_exceeded, job_error and bad_payload: a repeat recomputes."""
    engine = Engine(split_retries=0)
    task = set_consensus_task(3, 2)
    with BackgroundServer(engine) as background:
        with ServiceClient(port=background.port, retries=0) as active:
            for _ in range(2):
                with pytest.raises(SearchBudgetExceeded):
                    active.solve(ra_1res, task, budget=5)
                with pytest.raises(ServiceError) as info:
                    active.query("chr", (3, "not-a-depth"))
                assert info.value.code == "job_error"
                with pytest.raises(ServiceError) as info:
                    active.request("query", kind="chr", payload="]not[")
                assert info.value.code == "bad_payload"
            stats = active.stats()
    assert stats["memcache"]["size"] == 0
    assert stats["memcache"]["hits"] == 0
    # Both asks of each engine-reaching query ran the engine.
    assert stats["engine"]["misses"] == 4
    assert stats["metrics"]["counters"]["jobs_dispatched_total"] == 4


def test_memcache_size_bounds_the_text_tier():
    with BackgroundServer(Engine(), memcache_size=2) as background:
        with ServiceClient(port=background.port) as active:
            for depth_query in ((2, 1), (2, 2), (3, 1)):
                assert not active.query_response("chr", depth_query)["cache_hit"]
            stats = active.stats()
            assert stats["memcache"]["size"] == 2
            assert stats["memcache"]["evictions"] == 1
            assert stats["memcache"]["max_entries"] == 2
            # (2, 1) was evicted; (3, 1) is resident.
            assert not active.query_response("chr", (2, 1))["cache_hit"]
            assert active.query_response("chr", (3, 1))["cache_hit"]
            assert active.stats()["memcache"]["evictions"] == 2


def test_draining_server_refuses_a_would_be_hit(sleep_kind):
    background = BackgroundServer(Engine(), drain_grace=10.0).start()
    outcome = {}

    def slow_query():
        with ServiceClient(port=background.port) as active:
            outcome["slow"] = active.query_response("sleep", (1.0, "held"))

    with ServiceClient(port=background.port, retries=0) as active:
        assert not active.query_response("chr", (2, 1))["cache_hit"]
        assert active.query_response("chr", (2, 1))["cache_hit"]
        worker = threading.Thread(target=slow_query)
        worker.start()
        time.sleep(0.3)  # the sleep holds the drain open
        background._loop.call_soon_threadsafe(background.server.request_drain)
        deadline = time.monotonic() + 10
        while not background.server._draining and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(ServiceError) as info:
            active.query_response("chr", (2, 1))
        assert info.value.code == "shutting_down"
    worker.join(timeout=30)
    background.stop()
    assert outcome["slow"]["ok"]


def test_connection_limit_returns_overloaded():
    engine = Engine()
    with BackgroundServer(engine, max_connections=1) as background:
        with ServiceClient(port=background.port) as first:
            assert first.ping()
            response = _raw_request(
                background.port, b'{"v": 1, "op": "ping"}\n'
            )
            assert response["error"]["code"] == "overloaded"


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
def test_drain_completes_inflight_requests_then_refuses_connections(sleep_kind):
    engine = Engine()
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
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--no-cache", "--memcache-size", "3",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        announce = process.stdout.readline()
        port = int(re.search(r":(\d+) ", announce).group(1))
        with ServiceClient(port=port) as active:
            assert active.stats()["memcache"]["max_entries"] == 3
            affine = active.r_affine(t_resilience_alpha(4, 1))
        outcome = {}

        def slow_query():
            # A cold n=4 certificate: real work, in flight at SIGTERM.
            with ServiceClient(port=port) as active:
                outcome["value"] = active.certify(
                    affine, set_consensus_task(4, 1)
                )

        worker = threading.Thread(target=slow_query)
        worker.start()
        with ServiceClient(port=port) as active:
            deadline = time.monotonic() + 30
            while active.stats()["batcher"]["inflight"] < 1:
                assert time.monotonic() < deadline, "query never in flight"
                time.sleep(0.01)
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=60)
        worker.join(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
    assert process.returncode == 0
    assert outcome["value"]["kind"] == "unsolvable"
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


def test_clients_with_retries_zero_surface_the_raw_error():
    with ScriptedServer(lambda r: _error(r, "overloaded")) as server:
        with ServiceClient(port=server.port, retries=0) as client:
            with pytest.raises(ServiceError) as info:
                client.ping()
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
# Every typed error code round-trips through the client
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

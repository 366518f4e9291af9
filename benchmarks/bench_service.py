"""Service economics: a multi-client load mix against one server.

One in-process :class:`BackgroundServer` (engine ``jobs=1`` over a
persistent artifact cache, a 512-entry text tier in front) serves
concurrent blocking clients over real TCP, in two phases:

1. **Coalesce burst** — every client fires the *same* cold ``solve``
   query simultaneously (barrier start): the batcher must answer all
   of them with exactly one engine computation.
2. **Mixed sweep** — each client walks a deterministic, per-client
   rotation of the full query mix (``chr`` subdivisions, zoo
   ``classify``, the E11 ``solve`` grid) for several cycles, so the
   first cycle fills the caches and later cycles measure the
   steady state answered from the text tier.

Client-side latencies are exact (per-request wall clock); the coalesce
and memcache rates come from the server's own ``stats`` op.  Beside the
load mix, ``codec.serialize_vs_json_ratio`` prices the wire codec: the
time ``serialize`` takes on the certificate documents of the mix's
``solve`` grid (what a ``certify`` or ``check`` query carries) over the
time ``json.dumps(sort_keys=True)`` takes on the same documents, a
ratio that does not depend on host speed.  The two encoders run in
alternating passes and the median of the per-pass ratios is reported,
so load that lands on the machine during one pass weighs on both sides
of that pass's ratio.  Results land in ``BENCH_service.json``.
"""

from __future__ import annotations

import gc
import json
import statistics
import threading
import time
from pathlib import Path

from repro.adversaries import build_catalogue
from repro.analysis import render_mapping
from repro.certify import certified_search
from repro.engine import ArtifactCache, Engine, serialize
from repro.service import BackgroundServer, ServiceClient
from repro.tasks.set_consensus import set_consensus_task

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_service.json"

CLIENTS = 8
CYCLES = 3
#: Alternating timed passes of both encoders over the certificate
#: documents; the median of the per-pass ratios counts.
CODEC_PASSES = 15


def _quantile(sorted_values, q):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def _codec_ratio(affines):
    """``serialize`` time over ``json.dumps`` time on certificate documents."""
    documents = [
        certified_search(affine, set_consensus_task(3, k))[1]
        for affine in affines
        for k in (1, 2, 3)
    ]
    ratios = []
    # Collector off while timing, as ``timeit`` does: a full collection
    # landing in one encoder's half of a pass would skew that ratio.
    gc.collect()
    gc.disable()
    try:
        for _ in range(CODEC_PASSES):
            started = time.perf_counter()
            for document in documents:
                serialize(document)
            middle = time.perf_counter()
            for document in documents:
                json.dumps(document, sort_keys=True)
            ratios.append(
                (middle - started) / (time.perf_counter() - middle)
            )
    finally:
        gc.enable()
    return round(statistics.median(ratios), 2)


def bench_service(tmp_path, ra_1of, ra_1res, ra_fig5b):
    engine = Engine(jobs=1, cache=ArtifactCache(tmp_path / "service-cache"))
    zoo = [entry.adversary for entry in build_catalogue(3)]
    affines = [ra_1of, ra_1res, ra_fig5b]
    mix = (
        [("chr", (n, depth)) for n, depth in ((2, 1), (3, 1), (3, 2))]
        + [("classify", (adversary,)) for adversary in zoo]
        + [
            ("solve", (affine, set_consensus_task(3, k), None, None))
            for affine in affines
            for k in (1, 2, 3)
        ]
    )

    latencies_lock = threading.Lock()
    latencies = []
    failures = []

    with BackgroundServer(engine, memcache_size=512) as server:
        # -- phase 1: coalesce burst --------------------------------------
        burst_payload = ("solve", (ra_1res, set_consensus_task(3, 2), None, None))
        barrier = threading.Barrier(CLIENTS)

        def burst(index):
            try:
                with ServiceClient(port=server.port) as client:
                    barrier.wait(timeout=60)
                    client.query(*burst_payload)
            except Exception as exc:  # pragma: no cover - failure report
                failures.append(f"burst[{index}]: {exc!r}")

        threads = [
            threading.Thread(target=burst, args=(index,))
            for index in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        with ServiceClient(port=server.port) as client:
            burst_stats = client.stats()
        burst_computations = burst_stats["engine"]["misses"]
        burst_coalesced = burst_stats["metrics"]["counters"].get(
            "coalesced_total", 0
        )

        # -- phase 2: mixed sweep -----------------------------------------
        def sweep(index):
            try:
                with ServiceClient(port=server.port) as client:
                    for cycle in range(CYCLES):
                        offset = index + cycle  # per-client rotation
                        for step in range(len(mix)):
                            kind, payload = mix[(offset + step) % len(mix)]
                            started = time.perf_counter()
                            client.query(kind, payload)
                            elapsed = time.perf_counter() - started
                            with latencies_lock:
                                latencies.append(elapsed)
            except Exception as exc:  # pragma: no cover - failure report
                failures.append(f"sweep[{index}]: {exc!r}")

        sweep_started = time.perf_counter()
        threads = [
            threading.Thread(target=sweep, args=(index,))
            for index in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        sweep_wall = time.perf_counter() - sweep_started

        with ServiceClient(port=server.port) as client:
            stats = client.stats()

    assert not failures, failures
    assert len(latencies) == CLIENTS * CYCLES * len(mix)

    counters = stats["metrics"]["counters"]
    queries_total = counters.get("op_query_total", 0)
    coalesce_rate = counters.get("coalesced_total", 0) / queries_total
    latencies.sort()
    report = {
        "clients": CLIENTS,
        "cycles": CYCLES,
        "mix_size": len(mix),
        "requests_total": queries_total,
        "burst": {
            "clients": CLIENTS,
            "engine_computations": burst_computations,
            "coalesced": burst_coalesced,
        },
        "sweep_wall_s": round(sweep_wall, 4),
        "throughput_rps": round(len(latencies) / sweep_wall, 2),
        "latency_p50_s": round(_quantile(latencies, 0.50), 6),
        "latency_p99_s": round(_quantile(latencies, 0.99), 6),
        "latency_max_s": round(latencies[-1], 6),
        "coalesce_rate": round(coalesce_rate, 4),
        "memcache_hit_rate": stats["memcache"]["hit_rate"],
        "memcache_evictions": stats["memcache"]["evictions"],
        "engine_computations": stats["engine"]["misses"],
        "errors": sum(
            value
            for name, value in counters.items()
            if name.startswith("errors_")
        ),
        "codec": {"serialize_vs_json_ratio": _codec_ratio(affines)},
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print()
    print(render_mapping("service under load:", report))
    print(f"wrote {OUTPUT}")

    # The acceptance bars: one computation per distinct artifact, the
    # burst coalesced onto a single search, and a hot memcache.
    assert report["errors"] == 0
    assert burst_computations == 1
    assert burst_coalesced >= 1
    assert report["memcache_hit_rate"] >= 0.5
    assert report["latency_p99_s"] <= 30.0

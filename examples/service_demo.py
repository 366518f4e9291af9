"""End-to-end service demo — and the CI smoke test.

Starts ``python -m repro serve`` as a real subprocess, drives a mixed
query load through :class:`repro.service.client.ServiceClient` (ping,
subdivisions, zoo classification, an ``R_A`` construction, a FACT
solvability query and a repeated certified query), checks values
against the in-process engine — the repeat must come from the server's
text tier with the same bytes — sends a ``crash`` query, which must be
answered ``unknown_kind`` while the server keeps serving, prints the
server's stats, then sends SIGTERM and verifies the server drains an
in-flight request and exits 0.

Run from the repository root::

    PYTHONPATH=src python examples/service_demo.py

Exits non-zero on any failure, so CI can use it as a smoke gate.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.adversaries import Adversary, agreement_function_of  # noqa: E402
from repro.engine import Engine, JobSpec, serialize  # noqa: E402
from repro.service import ServiceClient, ServiceError  # noqa: E402
from repro.tasks.set_consensus import set_consensus_task  # noqa: E402


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    with tempfile.TemporaryDirectory(prefix="repro-service-demo-") as cache_dir:
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--cache-dir",
                cache_dir,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            announce = process.stdout.readline()
            print(announce.strip())
            match = re.search(r":(\d+) ", announce)
            assert match, f"no port in announce line: {announce!r}"
            port = int(match.group(1))

            with ServiceClient(port=port) as client:
                assert client.ping()
                chr1 = client.chr(3, 1)
                assert len(chr1.facets) == 13
                print(f"chr(3,1): {len(chr1.facets)} facets")

                adversary = Adversary(3, [{0, 1}, {1, 2}, {0, 2}, {0, 1, 2}])
                fair, ssc, sym, power, _ = client.classify(adversary)
                assert fair and ssc and sym and power == 2
                print(f"classify: fair={fair} setcon={power}")

                alpha = agreement_function_of(adversary)
                affine = client.r_affine(alpha)
                print(f"R_A: {len(affine.complex.facets)} facets")

                mapping, nodes = client.solve(affine, set_consensus_task(3, 2))
                assert mapping is not None
                print(f"solve: 2-set consensus solvable, {nodes} nodes")

                # The wire value is byte-identical to a direct engine call.
                response = client.query_response("chr", (3, 1))
                direct = serialize(JobSpec("chr", (3, 1)).run())
                assert response["value"] == direct
                print("byte-identical: ok")

                # A repeated certify is answered from the text tier with
                # the bytes of the first answer and of a direct call.
                statement = (affine, set_consensus_task(3, 2), None)
                first = client.query_response("certify", statement)
                again = client.query_response("certify", statement)
                assert not first["cache_hit"] and again["cache_hit"]
                assert again["value"] == first["value"]
                assert again["value"] == serialize(Engine().certify(*statement))
                print(
                    f"repeated certify: cache_hit, identical bytes "
                    f"({len(again['value'])} bytes)"
                )

                # No job kind ends the server: ``crash`` is not one.
                try:
                    client.query_response("crash", (3,))
                except ServiceError as error:
                    assert error.code == "unknown_kind", error.code
                else:
                    raise AssertionError("crash query was answered")
                assert client.query_response("chr", (2, 1))["ok"]
                print("crash query: unknown_kind, server still serving")

                stats = client.stats()
                print(
                    "stats: "
                    f"requests={stats['metrics']['counters']['requests_total']} "
                    f"memcache_hit_rate={stats['memcache']['hit_rate']}"
                )

            # Graceful drain: SIGTERM while a slow request is in flight.
            outcome = {}

            def slow_query():
                with ServiceClient(port=port) as draining_client:
                    outcome["value"] = draining_client.query(
                        "sleep", (1.0, "drained")
                    )

            worker = threading.Thread(target=slow_query)
            worker.start()
            time.sleep(0.4)
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=60)
            worker.join(timeout=30)
            assert outcome.get("value") == "drained", outcome
            assert process.returncode == 0, process.returncode
            assert "drained cleanly" in output
            print("graceful drain: ok (exit 0, in-flight request served)")
        finally:
            if process.poll() is None:
                process.kill()
    print("service demo passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload run in a fresh interpreter: set-up, timed ops, gate.

``run.py`` starts this script with ``PYTHONHASHSEED`` pinned and
``src`` on the path; it prints one JSON document as its last line.

    python3 perfbench/worker.py --workload e11-certified --seed 1 \
        --seconds 10 [--trace] [--trace-set] [--setup-only] [--tiny]

With ``--trace-set`` the run makes the workload's fixed trace op set
(``Workload.trace_ops`` ops) instead of running for ``--seconds``, so
the per-layer totals describe the code, not how many ops fit a window.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import itertools
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import spans
from measure import CAL_FRESH_S, CAL_NOMINAL_S, LONG_OP_S, calibrate, median

ROOT = Path.cwd()
ARTIFACT = ROOT / "examples" / "landscape_n4_sampled.json"
WORK_DIR = ROOT / ".bench_build" / "perfbench"

#: The ``n4-sampled`` grid settings (repro.sweep.driver.GRID_PRESETS).
N4_BUDGET, N4_KERNEL, N4_VARIANT, N4_SPLIT_RETRIES = 20000, "bitset", "union", 1
#: Unfair rows streamed after each fair row: the committed n4-sampled
#: grid's own mix (6 fair, 18 unfair), so the share of cheap cells does
#: not swing with the seed.
N4_UNFAIR_PER_FAIR = 3
#: Node budget of the E11 and serve-mix FACT queries: the budget of
#: the ``n4-sampled`` grid.
E11_BUDGET = 20000
#: serve-mix traffic.  No trace of real ``repro serve`` traffic exists,
#: so this is a stand-in; RATIONALE.md gives the reason for each value.
#: One session in ``SERVE_NEW_EVERY`` asks a statement for the first
#: time; repeats follow Zipf popularity with exponent ``SERVE_ZIPF_S``.
SERVE_NEW_EVERY = 2
SERVE_ZIPF_S = 1.0
SERVE_KINDS = ("solve", "certify", "check")
#: Step of the low-discrepancy sequence serve-mix draws repeats with.
GOLDEN = (5**0.5 - 1) / 2
#: Sessions in serve-mix's trace op set: ``SERVE_NEW_EVERY`` makes half
#: of them first touches.
SERVE_TRACE_OPS = 24


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def live_key(adversary) -> str:
    return json.dumps(sorted(sorted(live) for live in adversary.live_sets))


class Recorder:
    """Times ops in calibration units and keeps one row per op."""

    def __init__(self, tracer: Optional[spans.Tracer]):
        self.tracer = tracer
        self.ops: List[Dict[str, Any]] = []
        self.problems: List[str] = []
        self.gate_checks = 0
        #: The latest calibration point and when it was taken.
        self.point, self.point_at = 0.0, float("-inf")

    def run(self, fn: Callable[[], Any]):
        gc.collect()
        if time.perf_counter() - self.point_at > CAL_FRESH_S:
            self.point, self.point_at = calibrate(), time.perf_counter()
        cal = self.point
        traced = (
            self.tracer.op_span(len(self.ops))
            if self.tracer is not None
            else contextlib.nullcontext()
        )
        error = None
        with traced:
            started = time.perf_counter()
            try:
                value = fn()
            except Exception as exc:  # an op failure is data, not a crash
                value, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - started
        if wall >= LONG_OP_S:
            self.point, self.point_at = calibrate(), time.perf_counter()
            cal = (cal + self.point) / 2
        return value, error, wall, cal

    def add(self, wall, cal, verdict, cache, problem=None, **extra):
        self.gate_checks += 1
        if problem:
            self.problems.append(problem)
        self.ops.append(
            {
                "wall": wall,
                "cal": cal,
                "verdict": verdict,
                "cache": cache,
                "failed": bool(problem),
                **extra,
            }
        )


def seeded_passes(items: list, salt: str):
    """Endless passes over ``items``, each a fresh seeded permutation."""
    rng = random.Random(salt)
    while True:
        order = list(items)
        rng.shuffle(order)
        yield order


def fact_problem(label: str, verdict: str, k: int, power: int) -> Optional[str]:
    """FACT (Theorems 15/16): solvable iff k >= setcon; budget is allowed."""
    if verdict == "budget" or (verdict == "solvable") == (k >= power):
        return None
    return f"{label}: verdict {verdict} for k={k}, setcon={power}"


class Workload:
    """Hooks a workload overrides when it has something to do there."""

    #: Ops a ``--tiny`` self-test run makes: enough for a hit and a miss.
    tiny_ops = 9
    #: Ops of a ``--trace-set`` run.
    trace_ops = 0
    #: Passes over the workload's op set started so far; stays 0 for a
    #: workload whose ops do not come in passes.
    passes = 0

    def gate(self, recorder: Recorder) -> None:
        """Correctness checks that run after the timed phase."""

    def server_rss_mb(self) -> float:
        return 0.0

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Sweep cells: the sweep job body, repro.sweep.cells.compute_cell
# ----------------------------------------------------------------------
class SweepCells(Workload):
    """Landscape cells at the ``n4-sampled`` grid settings.

    A cell whose ``R_A`` came from the sweep's per-alpha memo is a cache
    hit; the cell that built it is a miss; an unfair adversary's cell is
    classification only.  ``expected`` maps ``(live sets, k)`` to the
    record the cell must reproduce exactly.
    """

    n = 0

    def __init__(self, seed: int):
        from repro.sweep.cells import cell_payload, compute_cell
        from repro.topology.subdivision import chr_complex

        self.cell_payload, self.compute_cell = cell_payload, compute_cell
        self.chr_facets = len(chr_complex(self.n, 2).facets)
        self.seed = seed
        self.expected: Dict[tuple, Any] = {}
        self.seen_alphas: set = set()
        self.ra_facets: List[int] = []

    def execute(self, recorder: Recorder, item, traced: bool) -> None:
        adversary, k = item
        payload = self.cell_payload(
            adversary, k, N4_BUDGET, N4_KERNEL, N4_VARIANT, N4_SPLIT_RETRIES
        )
        record, error, wall, cal = recorder.run(
            lambda: self.compute_cell(payload)
        )
        if error:
            recorder.add(wall, cal, None, None, f"cell raised {error}")
            return
        solve = record["solve"]
        verdict = solve["verdict"] if solve else None
        cache = None
        if record["alpha_digest"]:
            cache = "hit" if record["alpha_digest"] in self.seen_alphas else "miss"
            if cache == "miss":
                self.seen_alphas.add(record["alpha_digest"])
                self.ra_facets.append(record["ra"]["facets"])
        label = f"n={self.n} cell {record['live_sets']} k={k}"
        key = (live_key(adversary), k)
        canonical = json.dumps(record, sort_keys=True)
        expected = self.expected.get(key)
        problem = None
        if expected is not None and expected != canonical:
            problem = f"{label}: differs from its expected record"
        elif record["fair"] != (solve is not None):
            problem = f"{label}: solved={solve is not None}, fair={record['fair']}"
        elif solve is not None:
            problem = fact_problem(label, verdict, k, record["power"])
        self.remember(key, canonical)
        recorder.add(
            wall,
            cal,
            verdict,
            cache,
            problem,
            splits=solve["splits"] if solve else 0,
            artifact=expected is not None,
        )

    def remember(self, key: tuple, canonical: str) -> None:
        """Hook: record a computed cell as the expectation for repeats."""

    def layers(self, recorder: Recorder) -> Dict[str, float]:
        facets = self.ra_facets
        return {
            "core.ra_kept_ratio": (
                sum(facets) / (len(facets) * self.chr_facets) if facets else None
            ),
            "topology.chr2_facets": float(self.chr_facets),
            "sweep.split_retries": float(
                sum(op["splits"] for op in recorder.ops)
            ),
            "sweep.budget_cells": float(
                sum(op["verdict"] == "budget" for op in recorder.ops)
            ),
            "engine.misses": float(
                sum(op["verdict"] is not None for op in recorder.ops)
            ),
        }


class N3Sweep(SweepCells):
    """Every n=3 adversary x k=1..3, in seeded order, pass after pass.

    A cell computed again in a later pass must reproduce its first
    record exactly (the sweep's determinism contract).
    """

    n = 3
    tiny_ops = 60

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.analysis.landscape import all_adversaries
        from repro.sweep import cells

        self.adversaries = list(all_adversaries(3))
        self.trace_ops = 3 * len(self.adversaries)
        self.ra_memo = cells._RA_MEMO

    def ops(self):
        """Rows of the grid in seeded order, k ascending as the sweep does.

        Each pass starts with the sweep's per-alpha ``R_A`` memo empty,
        as a fresh sweep process does, so every pass is the same work
        and a partial last pass is a random subset of it.
        """
        salt = f"perfbench.n3:{self.seed}"
        for adversaries in seeded_passes(self.adversaries, salt):
            self.passes += 1
            self.ra_memo.clear()
            self.seen_alphas.clear()
            for adversary in adversaries:
                for k in (1, 2, 3):
                    yield adversary, k

    def remember(self, key: tuple, canonical: str) -> None:
        self.expected.setdefault(key, canonical)


class N4Sweep(SweepCells):
    """Fair n=4 cells from ``sample_adversaries(4, seed, ...)``.

    Cells of the committed ``n4-sampled`` grid (seed 11, 24 samples)
    must reproduce ``examples/landscape_n4_sampled.json`` exactly.
    """

    n = 4
    #: One fair row and the unfair rows streamed after it.
    trace_ops = 4 * (1 + N4_UNFAIR_PER_FAIR)

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.adversaries.fairness import is_fair
        from repro.sweep import sample_adversaries

        self.sample, self.is_fair = sample_adversaries, is_fair
        artifact = json.loads(ARTIFACT.read_text(encoding="utf-8"))
        self.expected = {
            (json.dumps(cell["live_sets"]), cell["k"]): json.dumps(
                cell, sort_keys=True
            )
            for cell in artifact["cells"]
        }

    def rows(self):
        """Fair rows, each followed by unfair rows, from growing samples."""
        seen: set = set()
        fair, unfair = deque(), deque()
        count = 24
        while True:
            for adversary in self.sample(4, self.seed, count):
                key = live_key(adversary)
                if key not in seen:
                    seen.add(key)
                    (fair if self.is_fair(adversary) else unfair).append(
                        adversary
                    )
            while fair and len(unfair) >= N4_UNFAIR_PER_FAIR:
                yield fair.popleft()
                for _ in range(N4_UNFAIR_PER_FAIR):
                    yield unfair.popleft()
            count *= 2

    def ops(self):
        for adversary in self.rows():
            for k in (1, 2, 3, 4):
                yield adversary, k


# ----------------------------------------------------------------------
# e11-certified: the E11 FACT table with the certificate trust chain
# ----------------------------------------------------------------------
class E11Certified(Workload):
    def __init__(self, seed: int):
        from repro.adversaries.agreement import agreement_function_of
        from repro.adversaries.fairness import is_fair
        from repro.adversaries.setcon import setcon
        from repro.analysis.landscape import all_adversaries, alpha_signature
        from repro.certify import cert_to_bytes, certified_search, check
        from repro.core.ra import r_affine
        from repro.tasks.set_consensus import set_consensus_task
        from repro.topology.subdivision import chr_complex

        self.r_affine, self.certified_search = r_affine, certified_search
        self.check, self.cert_to_bytes = check, cert_to_bytes
        self.chr_facets = len(chr_complex(3, 2).facets)
        self.tasks = {k: set_consensus_task(3, k) for k in (1, 2, 3)}
        self.rows = []
        for adversary in all_adversaries(3):
            if is_fair(adversary):
                alpha = agreement_function_of(adversary)
                self.rows.append(
                    (adversary, alpha, alpha_signature(alpha), setcon(adversary))
                )
        self.trace_ops = 3 * len(self.rows)
        self.seed = seed
        self.memo: Dict[Any, Any] = {}
        self.ra_facets: List[int] = []
        self.cert_bytes: List[int] = []
        self.simplices = 0

    def ops(self):
        """Passes over the table's rows in seeded order, k ascending.

        Each pass rebuilds its ``R_A`` set, so every pass is the same
        work and a partial last pass is a random subset of it.
        """
        for rows in seeded_passes(self.rows, f"perfbench.e11:{self.seed}"):
            self.passes += 1
            self.memo = {}
            for row in rows:
                for k in (1, 2, 3):
                    yield row, k

    def execute(self, recorder: Recorder, item, traced: bool) -> None:
        (adversary, alpha, signature, power), k = item
        task = self.tasks[k]
        cache = "hit" if signature in self.memo else "miss"

        def op():
            affine = self.memo.get(signature)
            if affine is None:
                affine = self.memo[signature] = self.r_affine(alpha)
            mapping, cert = self.certified_search(affine, task, E11_BUDGET)
            return affine, mapping, cert, self.check(cert)

        value, error, wall, cal = recorder.run(op)
        if error:
            recorder.add(wall, cal, None, cache, f"e11 op raised {error}")
            return
        affine, mapping, cert, report = value
        kind = cert["kind"]
        label = f"e11 {sorted(map(sorted, adversary.live_sets))} k={k}"
        verdict = "budget" if kind == "budget" else kind
        problem = None
        if not report.valid:
            problem = f"{label}: checker rejected ({report.reason})"
        elif report.kind != kind or report.verdict != (
            "undecided" if kind == "budget" else kind
        ):
            problem = f"{label}: report {report.kind}/{report.verdict} for {kind}"
        elif (mapping is not None) != (kind == "solvable"):
            problem = f"{label}: map returned with a {kind} certificate"
        else:
            problem = fact_problem(label, verdict, k, power)
        if traced:
            if cache == "miss":
                self.ra_facets.append(len(affine.complex.facets))
            self.cert_bytes.append(len(self.cert_to_bytes(cert)))
            self.simplices += report.simplices_checked
        recorder.add(wall, cal, verdict, cache, problem)

    def layers(self, recorder: Recorder) -> Dict[str, float]:
        facets = self.ra_facets
        return {
            "core.ra_kept_ratio": (
                sum(facets) / (len(facets) * self.chr_facets) if facets else None
            ),
            "topology.chr2_facets": float(self.chr_facets),
            "certify.cert_kb_p50": median(self.cert_bytes) / 1024.0,
        }


# ----------------------------------------------------------------------
# serve-mix: FACT queries through a `repro serve` subprocess
# ----------------------------------------------------------------------
class ServeMix(Workload):
    trace_ops = SERVE_TRACE_OPS

    def __init__(self, seed: int):
        from repro.adversaries.agreement import agreement_function_of
        from repro.adversaries.fairness import is_fair
        from repro.analysis.landscape import all_adversaries, alpha_signature
        from repro.core.ra import r_affine
        from repro.service import ServiceClient
        from repro.tasks.set_consensus import set_consensus_task
        from repro.tasks.solvability import SearchBudgetExceeded
        from repro.topology.subdivision import chr_complex

        self.budget_error = SearchBudgetExceeded
        self.chr_facets = len(chr_complex(3, 2).facets)
        alphas = {}
        for adversary in all_adversaries(3):
            if is_fair(adversary):
                alpha = agreement_function_of(adversary)
                alphas.setdefault(alpha_signature(alpha), alpha)
        tasks = {k: set_consensus_task(3, k) for k in (1, 2, 3)}
        self.statements = []
        for signature in sorted(alphas):
            alpha = alphas[signature]
            power = alpha.table()[frozenset(range(3))]
            affine = r_affine(alpha)
            for k in (1, 2, 3):
                self.statements.append((affine, tasks[k], k, power))
        self.ra_kept = sum(
            len(affine.complex.facets) for affine, _, k, _ in self.statements
            if k == 1
        ) / (len(self.statements) / 3 * self.chr_facets)
        self.seed = seed
        self.certs: Dict[int, dict] = {}
        self.values: Dict[tuple, Optional[str]] = {}
        self.cert_bytes: List[int] = []
        self.server_cu: List[float] = []
        self.client_cu: List[float] = []
        self.client = None
        self.server = self._spawn()
        try:
            self.client = ServiceClient("127.0.0.1", self.port, timeout=120)
            self.client.ping()
        except BaseException:
            self.close()
            raise

    def _spawn(self):
        cache_dir = WORK_DIR / f"serve-cache-{os.getpid()}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache_dir.mkdir(parents=True)
        self.cache_dir = cache_dir
        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--jobs",
                "1",
                "--cache-dir",
                str(cache_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = server.stdout.readline()
        if "listening on" not in line:
            server.kill()
            server.wait()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
        return server

    def server_rss_mb(self) -> float:
        status = Path(f"/proc/{self.server.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGTERM)
            try:
                self.server.communicate(timeout=20)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.communicate()
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def ops(self):
        """Sessions over a working set that grows at a fixed rate.

        Statements have a fixed popularity order (a property of the key
        set, not of the seed).  Every ``SERVE_NEW_EVERY``-th session asks
        the next statement in that order for the first time, so the
        share of cache misses and the statements they hit are the same in
        every run; the other sessions repeat an asked statement with Zipf
        popularity.  Repeats are drawn by inverting the Zipf distribution
        at a golden-ratio sequence started at a seeded point: the seed
        sets which repeats come when, while the share of each statement
        stays close to its Zipf share even over a few dozen draws.
        """
        order = list(range(len(self.statements)))
        random.Random("perfbench.serve.popularity").shuffle(order)
        point = random.Random(f"perfbench.serve:{self.seed}").random()
        asked: List[int] = []
        cumulative: List[float] = []
        for sent in itertools.count():
            if sent % SERVE_NEW_EVERY == 0 and len(asked) < len(order):
                asked.append(order[len(asked)])
                weight = 1.0 / len(asked) ** SERVE_ZIPF_S
                cumulative.append((cumulative[-1] if cumulative else 0.0) + weight)
                yield asked[-1]
            else:
                point = (point + GOLDEN) % 1.0
                yield asked[bisect.bisect(cumulative, point * cumulative[-1])]

    def payload(self, kind: str, index: int, cert: Optional[str]) -> tuple:
        """The request payload; ``check`` sends the certificate text back."""
        from repro.engine.serialize import deserialize

        affine, task, _, _ = self.statements[index]
        if kind == "solve":
            return (affine, task, E11_BUDGET, None)
        if kind == "certify":
            return (affine, task, E11_BUDGET)
        return (deserialize(cert),)

    def execute(self, recorder: Recorder, index, traced: bool) -> None:
        """One session: solve, certify, then check the returned certificate.

        Only value texts are kept across sessions: a kept certificate
        object would grow the heap every collection walks, and with it
        the cost of every later op.
        """
        exchanges = []

        def session():
            cert = None
            for kind in SERVE_KINDS:
                payload = self.payload(kind, index, cert)
                try:
                    response = self.client.query_response(kind, payload)
                except self.budget_error:
                    response = None
                if kind == "certify":
                    cert = response["value"]
                exchanges.append((kind, response))

        _, error, wall, cal = recorder.run(session)
        if error:  # a service error code other than budget
            recorder.add(wall, cal, None, None, f"serve #{index}: {error}")
            return
        problems, cached = [], []
        for kind, response in exchanges:
            text = None if response is None else response["value"]
            if self.values.setdefault((kind, index), text) != text:
                problems.append(f"serve {kind} #{index}: value changed")
            if response is not None:
                cached.append(response["cache_hit"])
                self.server_cu.append(response["wall_time"] / cal)
        cache = "hit" if all(cached) else "miss"
        server_s = sum(r["wall_time"] for _, r in exchanges if r)
        self.client_cu.append(max(wall - server_s, 0.0) / cal)
        # The verdict is read from the certificate after the timed phase.
        recorder.add(
            wall, cal, "pending", cache, "; ".join(problems), statement=index
        )

    def gate(self, recorder: Recorder) -> None:
        """Verdicts against FACT, then every distinct value against an
        in-process Engine (both outside the timed phase)."""
        from repro.engine import Engine, JobSpec, deserialize, serialize
        from repro.solver.api import as_solve_request

        verdicts = {}
        for index in {index for _, index in self.values}:
            _, _, k, power = self.statements[index]
            label = f"serve #{index} k={k}"
            solve, cert, report = (self.values[(kind, index)] for kind in SERVE_KINDS)
            self.cert_bytes.append(len(cert))
            cert, report = deserialize(cert), deserialize(report)
            verdict = cert["kind"]
            problem = fact_problem(label, verdict, k, power)
            if solve is not None and verdict != "budget":
                solved = deserialize(solve)[0] is not None
                if solved != (verdict == "solvable"):
                    problem = f"{label}: solve and certify disagree"
            expected = "undecided" if verdict == "budget" else verdict
            if not report["valid"] or (report["kind"], report["verdict"]) != (
                verdict,
                expected,
            ):
                problem = f"{label}: check report {report} for a {verdict} cert"
            verdicts[index] = (verdict, problem)
        for op in recorder.ops:
            if op["verdict"] == "pending":
                op["verdict"], problem = verdicts[op["statement"]]
                if problem:
                    op["failed"] = True
                    recorder.problems.append(problem)
        engine = Engine(jobs=1)
        for (kind, index), text in sorted(self.values.items()):
            payload = self.payload(kind, index, self.values[("certify", index)])
            if kind == "solve":
                payload = (as_solve_request(payload, warn=False),)
            (result,) = engine.run_jobs([JobSpec(kind, payload)])
            recorder.gate_checks += 1
            if text is None:
                same = result.error == "budget"
            else:
                same = result.ok and serialize(result.value) == text
            if not same:
                recorder.problems.append(
                    f"serve {kind} #{index}: differs from in-process Engine"
                )

    def layers(self, recorder: Recorder) -> Dict[str, float]:
        stats = self.client.stats()
        engine, counters = stats["engine"], stats["metrics"]["counters"]
        lookups = engine["hits"] + engine["misses"]
        return {
            "core.ra_kept_ratio": self.ra_kept,
            "topology.chr2_facets": float(self.chr_facets),
            "certify.cert_kb_p50": median(self.cert_bytes) / 1024.0,
            "engine.hits": float(engine["hits"]),
            "engine.misses": float(engine["misses"]),
            "engine.hit_ratio": engine["hits"] / lookups if lookups else 0.0,
            "service.server_cu_p50": median(self.server_cu),
            "service.client_cu_p50": median(self.client_cu),
            "service.memcache_hit_rate": float(stats["memcache"]["hit_rate"]),
            "service.batches": float(counters.get("batches_total", 0)),
        }


WORKLOADS = {
    "n3-sweep": N3Sweep,
    "n4-sweep": N4Sweep,
    "e11-certified": E11Certified,
    "serve-mix": ServeMix,
}


def layer_metrics(
    tracer: spans.Tracer, workload: Workload, recorder: Recorder, setup_cal: float
):
    """Per-layer metrics from the traced run's spans and counters.

    Times are in reference seconds: a span's self time in cu of the
    calibration point of the op it ran in (of set-up, outside ops),
    times the slice's nominal time.
    """
    ops = recorder.ops

    def in_ops(op: Optional[int]) -> float:
        return 0.0 if op is None else CAL_NOMINAL_S / ops[op]["cal"]

    def anywhere(op: Optional[int]) -> float:
        return CAL_NOMINAL_S / (setup_cal if op is None else ops[op]["cal"])

    op_seconds = CAL_NOMINAL_S * sum(op["wall"] / op["cal"] for op in ops)
    self_times = tracer.self_times(in_ops)
    totals = tracer.self_times(anywhere)
    search = self_times.get("solver.search", 0.0)
    check = self_times.get("certify.check", 0.0)
    share = (lambda seconds: seconds / op_seconds if op_seconds else 0.0)
    layers = {
        "topology.chr2_s": totals.get("topology.chr_complex", 0.0),
        "adversaries.classify_s": sum(
            (
                seconds
                for name, seconds in self_times.items()
                if name.startswith("adversaries.")
            ),
            0.0,
        ),
        "core.r_affine_s": self_times.get("core.r_affine", 0.0),
        "solver.setup_s": self_times.get("solver.setup", 0.0),
        "solver.setup_share": share(self_times.get("solver.setup", 0.0)),
        "solver.search_s": search,
        "solver.nodes": float(tracer.nodes),
        "solver.nodes_per_s": tracer.nodes / search if search else 0.0,
        "certify.extract_s": self_times.get("certify.certified_search", 0.0),
        "certify.check_s": check,
        "certify.check_share": share(check),
        "certify.check_simplices_per_s": (
            getattr(workload, "simplices", 0) / check if check else 0.0
        ),
        "engine.serialize_s": self_times.get("engine.serialize", 0.0)
        + self_times.get("engine.deserialize", 0.0),
    }
    shares = {
        f"share.{layer}": share(seconds)
        for layer, seconds in spans.layer_self_times(self_times).items()
    }
    return {**layers, **workload.layers(recorder)}, shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-set", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    calibrate()  # warm the slice before the first measured point
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    cal_before = calibrate()
    started = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed)
    setup_wall = time.perf_counter() - started
    setup_cal = (cal_before + calibrate()) / 2
    result: Dict[str, Any] = {
        "setup_wall": setup_wall,
        "setup_cal": setup_cal,
    }
    # Set-up objects live for the whole run: keep them out of the
    # collections run between ops.
    gc.freeze()
    recorder = Recorder(tracer)
    try:
        if not args.setup_only:
            deadline = time.perf_counter() + args.seconds
            ops = workload.ops()
            if args.tiny:
                ops = itertools.islice(ops, workload.tiny_ops)
            elif args.trace_set:
                ops = itertools.islice(ops, workload.trace_ops)
                deadline = float("inf")
            for item in ops:
                if time.perf_counter() >= deadline:
                    break
                workload.execute(recorder, item, args.trace)
                recorder.ops[-1]["pass"] = workload.passes
            result["rss_mb"] = max(rss_mb(), workload.server_rss_mb())
            workload.gate(recorder)
            if tracer is not None:
                result["layers"], result["shares"] = layer_metrics(
                    tracer, workload, recorder, setup_cal
                )
                WORK_DIR.mkdir(parents=True, exist_ok=True)
                tracer.dump(str(WORK_DIR / f"spans-{args.workload}.jsonl"))
    finally:
        workload.close()
    result["ops"] = recorder.ops
    result["problems"] = recorder.problems
    result["gate_checks"] = recorder.gate_checks
    result["artifact_cells"] = sum(op.get("artifact", False) for op in recorder.ops)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Typed job specs and the engine's batch API.

A :class:`JobSpec` is a pure description of one expensive computation —
a subdivision, an ``R_A`` construction, an adversary classification, a
FACT solvability query (plain or certificate-producing), a certificate
check, or one Algorithm-1 fuzz case.  Specs are canonically
serializable (see :mod:`repro.engine.serialize`), which gives each job
a content-addressed cache key and lets ``Engine(jobs>1)`` ship it to
its process pool as canonical text, without pickling closures.

:class:`Engine` is the façade the rest of the library talks to:
``run_jobs`` executes any batch with caching, parallelism, per-job
timing and deterministic result order; ``classify_many`` /
``solve_many`` / ``r_affine_many`` / ``fuzz_many`` and friends wrap
the batch shapes the commands and library modules issue.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..adversaries.adversary import Adversary
from ..adversaries.agreement import AgreementFunction, agreement_function_of
from ..adversaries.fairness import is_fair
from ..adversaries.setcon import setcon
from ..core.affine import AffineTask
from ..core.ra import DEFAULT_VARIANT, r_affine
from ..solver.api import SolveRequest, as_solve_request, run_request
from ..solver.split import split_request
from ..tasks.solvability import SearchBudgetExceeded
from ..tasks.task import Task
from ..topology.subdivision import iterated_subdivision
from ..topology.chromatic import standard_simplex
from .cache import MISS, NullCache
from .serialize import SerializationError, deserialize, digest, serialize

# ----------------------------------------------------------------------
# Job kinds: pure functions from a payload tuple to a serializable value
# ----------------------------------------------------------------------
def _compute_chr(payload: tuple) -> Any:
    n, m = payload
    # Not chr_complex(): workers and cold cache fills must not silently
    # depend on the in-process lru_cache being warm.
    return iterated_subdivision(standard_simplex(n), m)


def _compute_classify(payload: tuple) -> Any:
    (adversary,) = payload
    from ..analysis.landscape import alpha_signature

    alpha = agreement_function_of(adversary)
    return (
        is_fair(adversary),
        adversary.is_superset_closed(),
        adversary.is_symmetric(),
        setcon(adversary),
        alpha_signature(alpha),
    )


def _compute_r_affine(payload: tuple) -> Any:
    alpha, variant = payload
    return r_affine(alpha, variant)


def _compute_solve(payload: tuple) -> Any:
    # Typed payload: a 1-tuple wrapping a SolveRequest.  Legacy
    # positional 4/5-tuples still work through the adapter below, which
    # emits a DeprecationWarning.
    result = run_request(as_solve_request(payload))
    return result.as_pair()


def _compute_certify(payload: tuple) -> Any:
    # One FACT query that returns the portable certificate document
    # (solvable / unsolvable / resumable budget stub).  Budget overruns
    # are part of the value — a stub, not an error — so certify jobs
    # never enter the solve split-retry path.
    affine, task, budget = payload
    from ..certify.extract import certificate_for

    return certificate_for(affine, task, budget)


def _compute_check(payload: tuple) -> Any:
    (cert,) = payload
    from ..certify.checker import check

    return check(cert).to_dict()


def _compute_fuzz(payload: tuple) -> Any:
    alpha, affine, case_seed = payload
    from ..runtime.algorithm1 import run_fuzz_case

    outcome = run_fuzz_case(alpha, affine, case_seed)
    return (outcome.in_affine_task, outcome.result.steps_taken)


def _compute_simulate(payload: tuple) -> Any:
    # Explore schedules of hitting-set k-set consensus under crash plans
    # derived from the adversary; the value is the JSON-safe exploration
    # report (including the first violating schedule as a replayable
    # artifact).
    adversary, k, schedules, seed = payload
    from ..sim.oracle import simulate_params

    return simulate_params(adversary, k, schedules, seed)


def _compute_oracle(payload: tuple) -> Any:
    # One differential-oracle check: the simulate report plus the FACT
    # reference verdict and the agreement bit.
    adversary, k, schedules, seed = payload
    from ..sim.oracle import oracle_params

    return oracle_params(adversary, k, schedules, seed)


def _compute_sweep(payload: tuple) -> Any:
    # One landscape sweep cell: classify the adversary and (when fair)
    # decide one set-consensus task on its affine task R_A under a node
    # budget.  The record is fully deterministic, so cells are safe to
    # cache content-addressed and to persist as sweep checkpoint stubs.
    from ..sweep.cells import compute_cell

    return compute_cell(payload)


def _compute_sweep_resume(payload: tuple) -> Any:
    # A budget-escalated re-run of a sweep cell (payload + escalation
    # level).  Distinct kind so the escalated value gets its own cache
    # address and never shadows the base cell's record.
    from ..sweep.cells import compute_cell_resume

    return compute_cell_resume(payload)


#: kind -> compute function.  Worker processes resolve kinds through
#: this registry, so adding a job type is one entry + one payload codec.
JOB_KINDS: Dict[str, Callable[[tuple], Any]] = {
    "chr": _compute_chr,
    "classify": _compute_classify,
    "r_affine": _compute_r_affine,
    "solve": _compute_solve,
    "certify": _compute_certify,
    "check": _compute_check,
    "fuzz": _compute_fuzz,
    "simulate": _compute_simulate,
    "oracle": _compute_oracle,
    "sweep": _compute_sweep,
    "sweep_resume": _compute_sweep_resume,
}


@dataclass(frozen=True, eq=True)
class JobSpec:
    """One unit of engine work: a kind plus its canonical payload."""

    kind: str
    payload: tuple

    def cache_key(self) -> tuple:
        """The content-addressed identity of this computation."""
        return ("repro.engine.job", self.kind, self.payload)

    def run(self) -> Any:
        """Execute in-process (the sequential and worker code path)."""
        return JOB_KINDS[self.kind](self.payload)


@dataclass
class JobResult:
    """Outcome of one job: value + provenance and cost accounting."""

    index: int
    kind: str
    value: Any = None
    wall_time: float = 0.0
    cache_hit: bool = False
    #: True when this result was not computed for this slot: an
    #: identical spec earlier in the same batch did the work and the
    #: value was fanned out (see ``Engine.run_jobs`` dedup).
    coalesced: bool = False
    error: Optional[str] = None
    nodes_explored: Optional[int] = None
    splits: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


ProgressCallback = Callable[[JobResult], None]


def _run_one(index: int, kind: str, compute: Callable[[], Any]) -> JobResult:
    """One job's result: its value, or a structured failure.

    ``SearchBudgetExceeded`` is not an error here: it becomes a
    ``budget`` result that the engine turns into a domain-split retry
    (see :meth:`Engine._split_retry`).
    """
    result = JobResult(index=index, kind=kind)
    started = time.perf_counter()
    try:
        result.value = compute()
    except SearchBudgetExceeded as exc:
        result.error = "budget"
        result.nodes_explored = exc.nodes_explored
    except Exception:
        result.error = traceback.format_exc(limit=8)
    result.wall_time = time.perf_counter() - started
    return result


def _execute_sequential(
    pending: Sequence[Tuple[int, JobSpec]],
) -> Iterable[JobResult]:
    """Run every spec in the calling process, in submission order.

    The bit-identical default for ``jobs=1`` and single-job batches: no
    serialization.
    """
    for index, spec in pending:

        def compute(spec=spec):
            with obs.span("engine.compute", kind=spec.kind):
                return spec.run()

        yield _run_one(index, spec.kind, compute)


#: In a pool worker: the pool's shared array of running job indexes
#: (plus one; ``0`` is idle) and this worker's slot in it.
_SLOT: Tuple[Any, int] = (None, 0)


def _pool_job(
    index: int, kind: str, text: str, carrier: Optional[Dict[str, str]]
) -> Tuple[JobResult, List[Dict[str, Any]]]:
    """A pool worker's body: decode, compute, encode.

    The value goes back as canonical text, so a pooled value is the
    same bytes as an in-process or cache-replayed one.  Tracing follows
    only the carrier (a forked worker inherits its parent's tracer);
    the finished spans go back beside the result.
    """
    tracer = obs.enable() if carrier is not None else None
    if tracer is None:
        obs.disable()

    def compute():
        with obs.span("engine.codec.decode", kind=kind):
            payload = deserialize(text)
        with obs.span("engine.compute", kind=kind):
            value = JOB_KINDS[kind](payload)
        with obs.span("engine.codec.encode", kind=kind):
            return serialize(value)

    running, slot = _SLOT
    running[slot] = index + 1  # read by the parent if this worker dies
    with obs.attach(carrier):
        result = _run_one(index, kind, compute)
    running[slot] = 0
    if tracer is None:
        return result, []
    obs.disable()
    return result, [span.to_dict() for span in tracer.drain()]


def _pooled_result(result: JobResult, spans: List[Dict[str, Any]]) -> JobResult:
    """Reattach a worker's spans and decode its value text."""
    tracer = obs.get_tracer()
    if spans and tracer is not None:
        tracer.ingest(spans)
    if result.ok:
        with obs.span("engine.codec.decode", kind=result.kind):
            result.value = deserialize(result.value)
    return result


def _init_worker(parent: int, running, claimed) -> None:
    """Pool worker initializer: claim a slot in ``running``, and exit
    once the forking process is gone.

    A SIGKILLed parent closes no pipe its workers read (each worker
    holds the queue's write end too), so they would block forever.
    """
    import threading

    global _SLOT
    with claimed.get_lock():
        _SLOT = (running, claimed.value)
        claimed.value += 1

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _fork_pool(workers: int):
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    running = context.RawArray("i", workers)
    pool = ProcessPoolExecutor(
        workers,
        mp_context=context,
        initializer=_init_worker,
        initargs=(os.getpid(), running, context.Value("i", 0)),
    )
    pool.running = running
    return pool


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class Engine:
    """Batch runner: cache short-circuit, then sequential or pooled work.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) runs every job in the
        calling process, in submission order — bit-identical to calling
        the underlying functions directly.
    cache:
        An :class:`~repro.engine.cache.ArtifactCache` (persistent) or
        :class:`~repro.engine.cache.NullCache` (default: no caching).
    progress:
        Optional callback invoked with each :class:`JobResult` as soon
        as it completes (completion order; the returned list is always
        in submission order).
    split_retries:
        How many levels a ``solve`` job that raises
        :class:`SearchBudgetExceeded` is retried for: each level splits
        the domain into independent sub-jobs and doubles the per-job
        node budget, so level ``r`` spends at most ``2**r`` times the
        original budget per slice before the error is surfaced.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache=None,
        progress: Optional[ProgressCallback] = None,
        split_retries: int = 3,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache if cache is not None else NullCache()
        self.progress = progress
        self.split_retries = split_retries
        #: Jobs answered by batch-level dedup instead of computation.
        self.deduped = 0
        #: The process pool (``jobs > 1`` only), forked on the first
        #: pooled batch and reused until ``close`` or a worker death.
        self._pool = None

    def __repr__(self) -> str:
        return f"Engine(jobs={self.jobs}, cache={self.cache!r})"

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute(self, pending: List[Tuple[int, JobSpec]]) -> Iterable[JobResult]:
        """Yield one deduplicated batch's results as they complete:
        in-process when there is one worker or one job (parallelizing
        would not help), else pooled."""
        if self.jobs <= 1 or len(pending) == 1:
            return _execute_sequential(pending)
        return self._execute_pooled(pending)

    def _execute_pooled(self, pending: List[Tuple[int, JobSpec]]) -> Iterable[JobResult]:
        """Run a batch on the process pool, yielding in completion order.

        A worker death breaks the pool and fails every job without a
        result, running or queued.  The pool is dropped; each job that
        was running is re-run once, alone, on a one-worker pool, so only
        a job that kills its worker again fails, and the queued jobs go
        on to a freshly forked pool.
        """
        from concurrent.futures import as_completed
        from concurrent.futures.process import BrokenProcessPool

        carrier = obs.current_carrier()
        batch = [
            (index, spec.kind, serialize(spec.payload), carrier)
            for index, spec in pending
        ]
        stalled = False
        while batch:
            if self._pool is not None and self._pool._broken:
                self._pool = None  # a worker died while the pool was idle
            if self._pool is None:
                self._pool = _fork_pool(self.jobs)
            pool, futures, lost = self._pool, {}, []
            for job in batch:
                try:
                    futures[pool.submit(_pool_job, *job)] = job
                except BrokenProcessPool:
                    lost.append(job)
            for future in as_completed(futures):
                try:
                    yield _pooled_result(*future.result())
                except BrokenProcessPool:
                    lost.append(futures[future])
            if not lost:
                return
            if self._pool is pool:
                self._pool = None
            pool.shutdown(wait=False)
            running = {index - 1 for index in pool.running if index}
            if not running and stalled:  # twice no job to blame: all alone
                running = {job[0] for job in lost}
            stalled = not running
            batch = sorted(job for job in lost if job[0] not in running)
            for job in sorted(job for job in lost if job[0] in running):
                index, kind = job[:2]
                with _fork_pool(1) as alone:
                    try:
                        yield _pooled_result(*alone.submit(_pool_job, *job).result())
                    except BrokenProcessPool:
                        error = f"worker died while running {kind} job (re-dispatched 1 time(s))"
                        yield JobResult(index, kind, error=error)

    def close(self) -> None:
        """Release the process pool (idempotent; the engine stays usable —
        the next pooled batch forks a fresh pool)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run_jobs(self, specs: Sequence[JobSpec]) -> List[JobResult]:
        """Execute a batch; results are in submission order.

        Cache hits never reach the workers, and identical specs in one
        batch are computed once: later duplicates receive the leader's
        result with ``coalesced=True`` (so CLI commands and the service
        batcher both pay for each distinct computation exactly once).
        ``solve`` jobs that blow their node budget are retried as
        domain-partitioned sub-jobs (see
        :func:`repro.tasks.solvability.split_search_domains`); if the
        budget still fires after ``split_retries`` levels, the result
        carries ``error="budget"`` and the aggregated node count.
        """
        specs = list(specs)
        with obs.span(
            "engine.batch", jobs=self.jobs, specs=len(specs)
        ) as batch_span:
            results: List[Optional[JobResult]] = [None] * len(specs)
            pending: List[Tuple[int, JobSpec]] = []
            digests: List[str] = []
            leaders: Dict[str, int] = {}
            followers: Dict[str, List[int]] = {}

            hits = 0
            #: A key feeds a cache that stores values or dedup across a
            #: batch; a lone spec over a ``NullCache`` needs neither.
            keyed = self.cache.persistent or len(specs) > 1
            with obs.span("engine.cache.lookup") as lookup_span:
                for index, spec in enumerate(specs):
                    try:
                        key_digest = digest(spec.cache_key()) if keyed else ""
                    except SerializationError:
                        # A payload the codec cannot encode fails alone.
                        digests.append("")
                        error = traceback.format_exc(limit=8)
                        self._finish(results, JobResult(index, spec.kind, error=error))
                        continue
                    digests.append(key_digest)
                    started = time.perf_counter()
                    value = self.cache.get(key_digest)
                    if value is not MISS:
                        hits += 1
                        result = JobResult(
                            index=index,
                            kind=spec.kind,
                            value=value,
                            wall_time=time.perf_counter() - started,
                            cache_hit=True,
                        )
                        self._finish(results, result)
                    elif key_digest in leaders:
                        followers.setdefault(key_digest, []).append(index)
                        self.deduped += 1
                    else:
                        leaders[key_digest] = index
                        pending.append((index, spec))
                lookup_span.set_attr("hits", hits)
                lookup_span.set_attr("pending", len(pending))

            if pending:
                for result in self._execute(pending):
                    if (
                        result.error == "budget"
                        and specs[result.index].kind == "solve"
                    ):
                        result = self._split_retry(
                            specs[result.index], result
                        )
                    key_digest = digests[result.index]
                    if result.ok:
                        self.cache.put(key_digest, result.value)
                    self._finish(results, result)
                    for follower in followers.get(key_digest, ()):
                        self._finish(
                            results,
                            replace(result, index=follower, coalesced=True),
                        )

            for result in results:
                if result is None or not result.ok:
                    continue
                if result.kind == "solve":
                    result.nodes_explored = result.value[1]
            batch_span.set_attr("cache_hits", hits)
            batch_span.set_attr("computed", len(pending))
            batch_span.set_attr(
                "coalesced", sum(map(len, followers.values()))
            )
            return [result for result in results if result is not None]

    def _finish(self, results: List[Optional[JobResult]], result: JobResult):
        results[result.index] = result
        if self.progress is not None:
            self.progress(result)

    # ------------------------------------------------------------------
    def _split_retry(self, spec: JobSpec, failed: JobResult) -> JobResult:
        """Node-budget-aware retry: partition the domain, escalate the budget.

        Each retry level splits the first branching vertex's domain into
        independent slices *and* doubles the per-slice node budget —
        splitting alone cannot shrink deep backtracking subtrees, so the
        geometric escalation is what guarantees termination, while the
        domain partition keeps slices independent for the process pool.
        Slices are explored in canonical order, so the retry is fully
        deterministic.  After ``split_retries`` levels an unresolved
        slice surfaces as ``error="budget"`` with the aggregated node
        count.
        """
        with obs.span(
            "engine.split_retry",
            failed_nodes=failed.nodes_explored or 0,
            levels=self.split_retries,
        ) as retry_span:
            result = self._split_retry_impl(spec, failed)
            retry_span.set_attr("splits", result.splits)
            retry_span.set_attr("resolved", result.error is None)
            return result

    def _split_retry_impl(self, spec: JobSpec, failed: JobResult) -> JobResult:
        request = as_solve_request(spec.payload, warn=False)
        total_nodes = failed.nodes_explored or 0
        splits_done = 0
        budget_hit = False
        # Frontier items: (solve request with escalated budget, level).
        # Slices are SolveRequests, so their override domains normalize
        # to structural vertex_key order at construction — the slices
        # are platform- and hash-seed-stable.
        frontier: List[Tuple[SolveRequest, int]] = [
            (replace(request, budget=request.budget * 2), 1)
        ]

        def outcome(**fields) -> JobResult:
            fields.setdefault("wall_time", failed.wall_time)
            return JobResult(failed.index, spec.kind, splits=splits_done, **fields)

        while frontier:
            current, level = frontier.pop(0)
            if level > self.split_retries:
                budget_hit = True
                continue
            sub_requests = split_request(current, parts=2) or [
                replace(current, resume=None)
            ]
            splits_done += 1
            sub_pending = [
                (i, JobSpec("solve", (sub,)))
                for i, sub in enumerate(sub_requests)
            ]
            sub_results = sorted(
                self._execute(sub_pending), key=lambda r: r.index
            )
            for sub_result, sub_request in zip(sub_results, sub_requests):
                if sub_result.error == "budget":
                    total_nodes += sub_result.nodes_explored or 0
                    escalated = replace(sub_request, budget=sub_request.budget * 2)
                    frontier.append((escalated, level + 1))
                    continue
                if not sub_result.ok:
                    wall_time = failed.wall_time + sub_result.wall_time
                    return outcome(error=sub_result.error, wall_time=wall_time)
                mapping, nodes = sub_result.value
                total_nodes += nodes
                if mapping is not None:
                    return outcome(value=(mapping, total_nodes), nodes_explored=total_nodes)
        if budget_hit:
            return outcome(error="budget", nodes_explored=total_nodes)
        return outcome(value=(None, total_nodes), nodes_explored=total_nodes)

    # ------------------------------------------------------------------
    # Typed batch wrappers
    # ------------------------------------------------------------------
    def classify_many(self, adversaries: Iterable[Adversary]) -> List[Any]:
        """Per-adversary landscape classification (Figure 2 / E15).

        Returns one :class:`repro.analysis.landscape.LandscapeEntry`
        record per adversary, in input order.
        """
        from ..analysis.landscape import LandscapeEntry

        adversaries = list(adversaries)
        specs = [JobSpec("classify", (a,)) for a in adversaries]
        entries = []
        for adversary, result in zip(adversaries, self.run_jobs(specs)):
            fair, ssc, sym, power, alpha_key = self._value(result)
            entries.append(
                LandscapeEntry(
                    adversary=adversary,
                    fair=fair,
                    superset_closed=ssc,
                    symmetric=sym,
                    power=power,
                    alpha_key=alpha_key,
                )
            )
        return entries

    def r_affine_many(
        self,
        alphas: Iterable[AgreementFunction],
        variant: str = DEFAULT_VARIANT,
    ) -> List[AffineTask]:
        """Batch ``R_A`` constructions (Definition 9)."""
        specs = [JobSpec("r_affine", (alpha, variant)) for alpha in alphas]
        return [self._value(r) for r in self.run_jobs(specs)]

    def _request_of(self, query) -> SolveRequest:
        """Coerce a query — request or ``(L, T, budget)`` triple — to a
        :class:`SolveRequest`."""
        if isinstance(query, SolveRequest):
            return query
        affine, task, budget = query
        return SolveRequest(affine=affine, task=task, budget=budget)

    def solve_many(
        self,
        queries: Iterable,
    ) -> List[Tuple[Optional[Dict], int]]:
        """Batch FACT solvability queries.

        Each query is a :class:`SolveRequest` or an ``(L, T, budget)``
        triple; each result is ``(mapping_or_None, nodes_explored)``.
        Budget overruns that survive split-retry raise
        :class:`SearchBudgetExceeded` with the aggregated node count.
        """
        specs = [
            JobSpec("solve", (self._request_of(query),))
            for query in queries
        ]
        return [self._value(r) for r in self.run_jobs(specs)]

    def solve(
        self,
        affine: AffineTask,
        task: Task,
        budget: Optional[int] = None,
    ) -> Optional[Dict]:
        """One FACT query through the engine; returns the mapping."""
        request = SolveRequest(affine=affine, task=task, budget=budget)
        return self.solve_many([request])[0][0]

    def certify_many(
        self,
        queries: Iterable[Tuple[AffineTask, Task, Optional[int]]],
    ) -> List[Dict]:
        """Batch certified FACT queries; each result is a certificate.

        Certificates are content-addressed-cached like ``solve`` values.
        Budget overruns come back as resumable ``budget`` stubs (part of
        the value, never an error), so no split-retry happens here —
        callers hold the stub and can choose to resume.
        """
        specs = [
            JobSpec("certify", (affine, task, budget))
            for affine, task, budget in queries
        ]
        return [self._value(r) for r in self.run_jobs(specs)]

    def certify(
        self,
        affine: AffineTask,
        task: Task,
        budget: Optional[int] = None,
    ) -> Dict:
        """One certified FACT query; returns the certificate document."""
        return self.certify_many([(affine, task, budget)])[0]

    def resume_solve(
        self,
        affine: AffineTask,
        task: Task,
        stub: Dict,
        budget: Optional[int] = None,
    ) -> Tuple[Optional[Dict], int]:
        """Re-issue a budget-interrupted solve, seeded from its stub.

        The stub must be a ``budget`` certificate for exactly this
        ``(affine, task)`` pair (digest-checked); its consistent prefix
        becomes the search's starting assignment, so only the unexplored
        remainder of the space is visited.  Returns
        ``(mapping_or_None, nodes_explored)``.
        """
        from ..certify import witness

        statement = stub.get("statement", {}) if isinstance(stub, dict) else {}
        if stub.get("kind") != "budget":
            raise ValueError(f"not a budget stub: kind={stub.get('kind')!r}")
        if statement.get("affine_digest") != digest(affine) or statement.get(
            "task_digest"
        ) != digest(task):
            raise ValueError(
                "stub statement digests do not match (affine, task)"
            )
        partial = witness.partial_assignment_of(stub)
        request = SolveRequest(
            affine=affine,
            task=task,
            budget=budget,
            resume=partial,
        )
        return self._value(self.run_jobs([JobSpec("solve", (request,))])[0])

    def minimal_set_consensus_many(
        self,
        affines: Iterable[AffineTask],
        budget: Optional[int] = None,
    ) -> List[int]:
        """Per-affine-task minimal solvable ``k`` (the E11 table).

        Issues the whole ``(L, k)`` grid as one batch — per-``(R_A, T)``
        queries are independent, which is what the process pool exploits.
        """
        from ..tasks.set_consensus import set_consensus_task

        affines = list(affines)
        queries = []
        grid: List[Tuple[int, int]] = []
        for row, affine in enumerate(affines):
            for k in range(1, affine.n + 1):
                grid.append((row, k))
                queries.append(
                    (affine, set_consensus_task(affine.n, k), budget)
                )
        answers: Dict[int, int] = {}
        for (row, k), (mapping, _nodes) in zip(
            grid, self.solve_many(queries)
        ):
            if mapping is not None and (row not in answers or k < answers[row]):
                answers[row] = k
        if len(answers) != len(affines):
            raise AssertionError("n-set consensus is always solvable")
        return [answers[row] for row in range(len(affines))]

    def simulate(
        self,
        adversary: Adversary,
        *,
        k: int = 1,
        schedules: int = 4,
        seed: int = 7,
    ) -> Dict:
        """Explore hitting-set k-set consensus under crash plans (cached)."""
        spec = JobSpec("simulate", (adversary, k, schedules, seed))
        return self._value(self.run_jobs([spec])[0])

    def oracle_many(self, payloads: Iterable[tuple]) -> List[Dict]:
        """Batch differential-oracle checks.

        Each payload is the 4-tuple an :class:`OracleCase
        <repro.sim.oracle.OracleCase>` produces via ``payload()`` —
        the full parameter set is the cache identity, so a changed
        grid never serves a stale verdict.
        """
        specs = [JobSpec("oracle", tuple(p)) for p in payloads]
        return [self._value(r) for r in self.run_jobs(specs)]

    def fuzz_many(
        self,
        alpha: AgreementFunction,
        affine: AffineTask,
        runs: int,
        seed: int = 0,
    ) -> List[Tuple[bool, int]]:
        """Batch Algorithm-1 fuzz cases (one schedule per job).

        Case seeds are derived deterministically from ``(seed, index)``,
        so the batch is reproducible and independent of ``jobs``.
        """
        from ..runtime.algorithm1 import fuzz_case_seed

        specs = [
            JobSpec("fuzz", (alpha, affine, fuzz_case_seed(seed, index)))
            for index in range(runs)
        ]
        return [self._value(r) for r in self.run_jobs(specs)]

    # ------------------------------------------------------------------
    def _value(self, result: JobResult) -> Any:
        if result.ok:
            return result.value
        if result.error == "budget":
            raise SearchBudgetExceeded(
                "node budget exceeded after split-retry",
                nodes_explored=result.nodes_explored or 0,
            )
        raise RuntimeError(
            f"engine job {result.kind}#{result.index} failed: {result.error}"
        )

    def stats(self) -> Dict[str, int]:
        """Aggregate cache + dedup statistics for this engine."""
        return {
            "hits": self.cache.hits,
            "misses": self.cache.misses,
            "deduped": self.deduped,
        }

"""The compute engine: cached, batch-parallel expensive computation.

``repro.engine`` is the single entry point for everything costly in the
reproduction — ``Chr^m s`` subdivisions, affine-task (``R_A``)
constructions, per-adversary landscape classification, FACT solvability
queries, and Algorithm-1 fuzz batches:

* :mod:`~repro.engine.serialize` — canonical, deterministic codecs and
  content digests for every artifact type;
* :mod:`~repro.engine.cache` — a content-addressed on-disk store, so an
  artifact is computed once per machine, ever;
* :mod:`~repro.engine.jobs` — typed job specs and the batch API
  (:class:`Engine` with ``run_jobs`` / ``solve_many`` /
  ``classify_many`` / ``r_affine_many`` / ``fuzz_many``): sequential
  in-process or worker-pool (:mod:`repro.workers`) execution with
  deterministic result order, per-job timeouts, and structured budget
  outcomes.

Every CLI command runs its work through an :class:`Engine`.  The
sequential in-process path (``jobs=1``, no cache) is the default
everywhere and stays bit-identical with calling the underlying
functions directly; parallelism and persistence are strictly opt-in
(``--jobs N`` / ``--cache-dir`` on the CLI).  See ``docs/engine.md``.
"""

from ..solver.api import SolveRequest, SolveResult
from .cache import MISS, ArtifactCache, NullCache, default_cache_dir
from .jobs import Engine, JobResult, JobSpec
from .serialize import (
    SCHEME_VERSION,
    SerializationError,
    deserialize,
    digest,
    serialize,
    tasks_equivalent,
)

__all__ = [
    "ArtifactCache",
    "Engine",
    "JobResult",
    "JobSpec",
    "MISS",
    "NullCache",
    "SCHEME_VERSION",
    "SerializationError",
    "SolveRequest",
    "SolveResult",
    "default_cache_dir",
    "deserialize",
    "digest",
    "serialize",
    "tasks_equivalent",
]

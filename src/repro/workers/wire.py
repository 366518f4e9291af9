"""Wire decomposition for worker dispatch: digests + compact deltas.

The old pool shipped every job as one monolithic canonical-serialized
payload, so a batch of 200 solves against the same ``(affine, task)``
pair serialized — and each worker deserialized — the same multi-KB
task description 200 times, and every deserialization produced a fresh
``Task`` object whose ``_solver_setup`` cache started cold.

This module splits a payload into:

* **shared parts** — the big, reusable components (the affine task and
  the task of ``solve``/``certify`` jobs), addressed by their canonical
  digest.  The pool sends each part's full text to a given worker at
  most once (``("val", digest, text)``); afterwards the digest alone
  (``("ref", digest)``) suffices, and the worker resolves it from its
  payload-object cache.  Because the *same deserialized object* is
  reused across jobs, the solver setup cached on it stays warm.
* **a delta** — the small per-job remainder (budget, overrides, resume
  seed), always sent inline as canonical text.

``affinity_key`` exposes the :func:`repro.solver.api.setup_digest` of
jobs that carry a solver setup, which is what the pool routes worker
affinity by.  Kinds without shared structure degrade gracefully to a
single generic delta and no affinity.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..engine.serialize import digest, serialize
from ..solver.api import SolveRequest, setup_digest

__all__ = [
    "WirePart",
    "affinity_key",
    "component_digest",
    "decompose",
    "recompose",
]

#: ("val", digest, text) introduces a shared part to a worker;
#: ("ref", digest) names one the worker has already seen.
WirePart = Tuple[str, ...]


def _solve_request_of(kind: str, payload: tuple) -> Optional[SolveRequest]:
    if kind == "solve" and len(payload) == 1 and isinstance(payload[0], SolveRequest):
        return payload[0]
    return None


def decompose(kind: str, payload: tuple) -> Tuple[List[Any], str]:
    """``(shared_components, delta_text)`` for one job payload.

    Shared components come back as live objects (the caller digests
    and interns them per worker); the delta is already canonical text.
    """
    request = _solve_request_of(kind, payload)
    if request is not None:
        delta = serialize(
            (request.budget, request.domain_overrides, request.resume)
        )
        return [request.affine, request.task], delta
    if kind == "certify" and len(payload) == 3:
        affine, task, budget = payload
        return [affine, task], serialize((budget,))
    return [], serialize(payload)


def recompose(kind: str, shared: Sequence[Any], delta_text: str) -> tuple:
    """Inverse of :func:`decompose`, run worker-side.

    ``shared`` holds the resolved component objects in decomposition
    order (empty for generic payloads); ``delta_text`` is canonical
    text that the caller has *not* deserialized yet — this function
    owns the codec step so the worker can span/account it.
    """
    from ..engine.serialize import deserialize

    delta = deserialize(delta_text)
    if shared and kind == "solve":
        budget, overrides, resume = delta
        return (
            SolveRequest(
                affine=shared[0],
                task=shared[1],
                budget=budget,
                domain_overrides=overrides,
                resume=resume,
            ),
        )
    if shared and kind == "certify":
        (budget,) = delta
        return (shared[0], shared[1], budget)
    return delta


def component_digest(component: Any) -> str:
    """The interning address of one shared component."""
    return digest(component)


def affinity_key(kind: str, payload: tuple) -> Optional[str]:
    """The setup digest this job wants a warm worker for, if any."""
    request = _solve_request_of(kind, payload)
    if request is not None:
        return setup_digest(request.affine, request.task)
    if kind == "certify" and len(payload) == 3:
        return setup_digest(payload[0], payload[1])
    return None

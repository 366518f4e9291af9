"""Typed solve API: :class:`SolveRequest` in, :class:`SolveResult` out.

The engine's ``solve`` jobs historically carried positional 4/5-element
payload tuples ``(affine, task, budget, overrides[, resume])``.  This
module replaces them with a frozen, hashable, canonically-normalized
:class:`SolveRequest` — the single value that flows through
``Engine.solve``/``solve_many``/``resume_solve``, the service batcher
and the CLI — and a :class:`SolveResult` carrying the verdict, the map
and the node count.

Normalization happens at construction: ``domain_overrides`` and
``resume`` mappings are flattened to tuples of pairs sorted by the
structural :func:`~repro.topology.simplex.vertex_key`, never by
``repr`` or hash order — so two requests describing the same slice are
equal, share one cache digest, and split slices are platform-stable.

Legacy tuple payloads remain accepted everywhere through
:func:`as_solve_request`, a one-line adapter that emits a
``DeprecationWarning`` (suppressed on the service wire, where tuples
are the protocol-v1 format and not a deprecated call site).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .. import obs
from ..core.affine import AffineTask
from ..tasks.task import OutputVertex, Task
from ..topology.chromatic import ChrVertex
from ..topology.simplex import vertex_key
from .kernel import BitsetKernel

__all__ = [
    "SolveRequest",
    "SolveResult",
    "as_solve_request",
    "make_searcher",
    "run_request",
    "solve_request_from_payload",
]

def _normalize_pairs(value, what: str):
    """Flatten a vertex-keyed mapping to a vertex_key-sorted pair tuple."""
    if not value:
        return None
    if isinstance(value, dict):
        items = list(value.items())
    else:
        items = [tuple(pair) for pair in value]
    normalized = []
    for vertex, payload in items:
        if what == "domain_overrides":
            payload = tuple(payload)
        normalized.append((vertex, payload))
    normalized.sort(key=lambda pair: vertex_key(pair[0]))
    return tuple(normalized)


@dataclass(frozen=True)
class SolveRequest:
    """One FACT solvability query, canonically normalized.

    ``domain_overrides`` and ``resume`` accept either mappings or pair
    sequences and are stored as vertex_key-sorted tuples of pairs —
    hashable, order-independent, and stable across platforms and hash
    seeds (this ordering *is* the split-slice stability fix).
    """

    affine: AffineTask
    task: Task
    budget: Optional[int] = None
    domain_overrides: Optional[Tuple] = None
    resume: Optional[Tuple] = None

    def __post_init__(self):
        object.__setattr__(
            self,
            "domain_overrides",
            _normalize_pairs(self.domain_overrides, "domain_overrides"),
        )
        object.__setattr__(
            self, "resume", _normalize_pairs(self.resume, "resume")
        )

    # ------------------------------------------------------------------
    def overrides_dict(self):
        """The ``MapSearch`` view of ``domain_overrides`` (or ``None``)."""
        if self.domain_overrides is None:
            return None
        return {vertex: outs for vertex, outs in self.domain_overrides}

    def resume_dict(self):
        """The ``search(resume_from=...)`` view of ``resume`` (or ``None``)."""
        if self.resume is None:
            return None
        return {vertex: out for vertex, out in self.resume}


@dataclass(frozen=True)
class SolveResult:
    """The outcome of one solve: verdict, map, node count."""

    verdict: str  # "solvable" | "unsolvable"
    mapping: Optional[Dict[ChrVertex, OutputVertex]]
    nodes: int

    @property
    def solvable(self) -> bool:
        return self.verdict == "solvable"

    def as_pair(self) -> Tuple[Optional[Dict], int]:
        """The legacy ``(mapping, nodes_explored)`` value shape."""
        return (self.mapping, self.nodes)


def solve_request_from_payload(payload: Tuple) -> SolveRequest:
    """Build a request from a positional 4/5-tuple (no deprecation)."""
    if not 4 <= len(payload) <= 5:
        raise ValueError(
            f"solve payload must have 4 or 5 elements, got {len(payload)}"
        )
    affine, task, budget, overrides = payload[:4]
    resume = payload[4] if len(payload) == 5 else None
    return SolveRequest(
        affine=affine,
        task=task,
        budget=budget,
        domain_overrides=overrides or None,
        resume=resume or None,
    )


def as_solve_request(payload, *, warn: bool = True) -> SolveRequest:
    """Coerce a solve payload — typed or legacy tuple — to a request.

    Accepts a :class:`SolveRequest`, a 1-tuple wrapping one (the typed
    job payload shape), or a legacy positional 4/5-tuple.  The legacy
    form emits a ``DeprecationWarning`` unless ``warn=False`` (the
    service wire, where tuples are the v1 protocol, not a call site).
    """
    if isinstance(payload, SolveRequest):
        return payload
    if (
        isinstance(payload, tuple)
        and len(payload) == 1
        and isinstance(payload[0], SolveRequest)
    ):
        return payload[0]
    if warn:
        warnings.warn(
            "positional solve payload tuples are deprecated; "
            "pass a SolveRequest",
            DeprecationWarning,
            stacklevel=3,
        )
    return solve_request_from_payload(tuple(payload))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def make_searcher(request: SolveRequest) -> BitsetKernel:
    """The searcher a request resolves to: always a :class:`BitsetKernel`."""
    return BitsetKernel(
        request.affine,
        request.task,
        domain_overrides=request.overrides_dict(),
    )


def run_request(request: SolveRequest) -> SolveResult:
    """Execute one request; raises :class:`SearchBudgetExceeded` like
    :meth:`~repro.tasks.solvability.MapSearch.search`."""
    searcher = make_searcher(request)
    with obs.span(
        "solver.search",
        budget=request.budget,
        resumed=request.resume is not None,
    ) as search_span:
        try:
            mapping = searcher.search(
                request.budget, resume_from=request.resume_dict()
            )
        finally:
            # The budget exception path still reports how far it got.
            search_span.set_attr("nodes", searcher.nodes_explored)
        search_span.set_attr("solvable", mapping is not None)
    return SolveResult(
        verdict="solvable" if mapping is not None else "unsolvable",
        mapping=mapping,
        nodes=searcher.nodes_explored,
    )

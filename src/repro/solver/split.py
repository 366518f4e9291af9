"""Splitting of a solve request into disjoint slices.

Wraps :func:`~repro.tasks.solvability.split_search_domains` at the
typed level: a budget-stalled :class:`~repro.solver.api.SolveRequest`
is partitioned into sub-requests over disjoint bitmask slices of one
vertex's candidate domain.  Running the slices in list order visits
assignments in exactly the order the undivided search would, so the
first slice that finds a map returns the same map the full search
returns — the property the engine's split-retry relies on.

Slices keep the parent's budget.  Because sub-requests are
``SolveRequest`` instances, their override tuples are normalized to
structural ``vertex_key`` order at construction — never ``repr`` or
dict insertion order — which is what makes split slices platform- and
hash-seed-stable.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from ..tasks.solvability import split_search_domains
from .api import SolveRequest

__all__ = ["split_request"]


def split_request(request: SolveRequest, parts: int = 2) -> List[SolveRequest]:
    """Partition a request's search space into disjoint sub-requests.

    Returns ``[]`` when the space has no splittable domain (single
    branch); the caller retries the undivided request with a larger
    budget instead.
    """
    sub_spaces = split_search_domains(
        request.affine,
        request.task,
        parts=parts,
        domain_overrides=request.overrides_dict(),
    )
    return [
        replace(request, domain_overrides=overrides)
        for overrides in sub_spaces
    ]

"""Certificate extraction: instrument the FACT search.

The decision procedure already computes everything a certificate needs
— the map (positive), the vertex order / domains / node count
(negative), the node count at the budget (budget) — so extraction is a
cheap read-out of searcher state after one ``search()`` call, never a
second search.

The search is the bitset kernel, which walks the reference
``MapSearch`` tree node for node: an unsolvable certificate embeds the
exact ``nodes_explored`` the independent checker replays node-for-node.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.affine import AffineTask
from ..solver.api import SolveRequest, make_searcher
from ..tasks.solvability import SearchBudgetExceeded
from ..tasks.task import OutputVertex, Task
from ..topology.chromatic import ChrVertex
from . import witness
from .witness import Cert


def certified_search(
    affine: AffineTask,
    task: Task,
    budget: Optional[int] = None,
) -> Tuple[Optional[Dict[ChrVertex, OutputVertex]], Cert]:
    """One FACT query with a certificate as by-product.

    Returns ``(mapping_or_None, certificate)``:

    * a carried map was found — ``(mapping, SolvableCert)``;
    * the search exhausted — ``(None, UnsolvableCert)``;
    * the node budget fired — ``(None, budget stub)`` (the stub's
      ``kind`` is ``budget``; it is *not* a verdict).
    """
    search = make_searcher(SolveRequest(affine=affine, task=task))
    try:
        mapping = search.search(budget)
    except SearchBudgetExceeded as exc:
        return None, witness.budget_stub(affine, task, exc, budget)
    if mapping is not None:
        return mapping, witness.solvable_cert(
            affine, task, mapping, nodes_explored=search.nodes_explored
        )
    return None, witness.unsolvable_cert(affine, task, search)


def certificate_for(
    affine: AffineTask,
    task: Task,
    budget: Optional[int] = None,
) -> Cert:
    """Just the certificate (the engine's ``certify`` job body)."""
    _, cert = certified_search(affine, task, budget)
    return cert

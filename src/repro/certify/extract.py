"""Certificate extraction: instrument the FACT search, resume stubs.

The decision procedure already computes everything a certificate needs
— the map (positive), the vertex order / domains / node count
(negative), the consistent prefix (budget) — so extraction is a cheap
read-out of searcher state after one ``search()`` call, never a second
search.

Kernel selection: certificates are read out of whichever kernel ran the
search, but only **tree-identical** kernels qualify (the default
``bitset`` kernel and ``legacy``): an unsolvable certificate embeds the
exact ``nodes_explored`` the independent checker replays node-for-node,
and a budget stub's prefix encodes a position in the legacy tree.  A
request for the pruning ``fc`` kernel is therefore coerced to
``bitset`` here — certificates stay byte-identical no matter which
kernel the caller prefers for plain solves.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.affine import AffineTask
from ..solver.api import (
    DEFAULT_KERNEL,
    KERNEL_LEGACY,
    TREE_IDENTICAL_KERNELS,
    SolveRequest,
    make_searcher,
)
from ..tasks.solvability import (
    MapSearch,
    SearchBudgetExceeded,
)
from ..tasks.task import OutputVertex, Task
from ..topology.chromatic import ChrVertex
from . import witness
from .witness import Cert


def _certifying_searcher(affine: AffineTask, task: Task, kernel: str):
    """A searcher whose tree — hence certificate — matches legacy."""
    if kernel not in TREE_IDENTICAL_KERNELS:
        kernel = DEFAULT_KERNEL
    if kernel == KERNEL_LEGACY:
        return MapSearch(affine, task)
    return make_searcher(
        SolveRequest(affine=affine, task=task, kernel=kernel)
    )


def certified_search(
    affine: AffineTask,
    task: Task,
    budget: Optional[int] = None,
    kernel: str = DEFAULT_KERNEL,
) -> Tuple[Optional[Dict[ChrVertex, OutputVertex]], Cert]:
    """One FACT query with a certificate as by-product.

    Returns ``(mapping_or_None, certificate)``:

    * a carried map was found — ``(mapping, SolvableCert)``;
    * the search exhausted — ``(None, UnsolvableCert)``;
    * the node budget fired — ``(None, budget stub)`` carrying the
      resumable partial assignment (the stub's ``kind`` is ``budget``;
      it is *not* a verdict).

    ``kernel`` selects the search kernel; non-tree-identical kernels
    are coerced so the certificate bytes never depend on the choice.
    """
    search = _certifying_searcher(affine, task, kernel)
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
    kernel: str = DEFAULT_KERNEL,
) -> Cert:
    """Just the certificate (the engine's ``certify`` job body)."""
    _, cert = certified_search(affine, task, budget, kernel)
    return cert


def resume_from_stub(
    stub: Cert,
    affine: AffineTask,
    task: Task,
    budget: Optional[int] = None,
    kernel: str = DEFAULT_KERNEL,
) -> Tuple[Optional[Dict[ChrVertex, OutputVertex]], int]:
    """Continue a budget-interrupted search from its stub.

    Seeds a fresh searcher with the stub's partial assignment, so only
    the unexplored remainder of the space is visited.  Raises
    ``ValueError`` when the stub does not belong to ``(affine, task)``
    (digest check) or its prefix is not consistent.  Returns
    ``(mapping_or_None, nodes_explored_in_resume)``.
    """
    from ..engine.serialize import digest

    statement = stub.get("statement", {})
    if statement.get("affine_digest") != digest(affine) or statement.get(
        "task_digest"
    ) != digest(task):
        raise ValueError("stub statement digests do not match (affine, task)")
    partial = witness.partial_assignment_of(stub)
    search = _certifying_searcher(affine, task, kernel)
    mapping = search.search(budget, resume_from=partial)
    return mapping, search.nodes_explored

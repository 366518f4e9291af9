"""The bitset search kernel for the FACT decision procedure.

:class:`BitsetKernel` is **tree-identical** to the reference
:class:`~repro.tasks.solvability.MapSearch`: same vertex order, same
candidate order, same per-candidate consistency boolean, hence the
same verdicts, the same returned maps *and the same node counts*.  All
the speedup comes from doing each consistency test as one bit probe
against a memoized allowed-candidate mask instead of building and
hashing a ``frozenset`` image per firing simplex.  Because the tree is
identical, budget stubs and unsolvable certificates (which replay
``nodes_explored`` node-for-node) are interchangeable with reference
ones.

The kernel exposes the attribute surface certificate extraction reads
(``vertices``, ``domains``, ``nodes_explored``, ``domains_overridden``)
by delegating to the :class:`MapSearch` it is built from.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .. import obs
from ..core.affine import AffineTask
from ..tasks.solvability import (
    DomainOverrides,
    MapSearch,
    SearchBudgetExceeded,
)
from ..tasks.task import OutputVertex, Task
from ..topology.chromatic import ChrVertex
from .interning import InternTable

__all__ = ["BitsetKernel"]


def _shared_setup(affine: AffineTask, task: Task):
    """The interned problem for ``(affine, task)``, built once per pair.

    The contract of this package: interning happens once per (affine,
    task) pair, not once per query, and the task-independent half of it
    (the :class:`~repro.tasks.solvability.SearchStructure` of ``L``) once
    per affine object, whatever the task.  The cache lives on
    the task object (``task._solver_setup``), so its lifetime is the
    task's own — no global registry to leak in a long-lived server —
    and repeated queries (the service traffic pattern, the engine's
    split-retry escalations) pay only the search, not the setup.  The cached ``MapSearch`` and :class:`InternTable` are
    read-only to the kernel (per-search state lives on the kernel
    instance); the shared allowed-candidate memos are the point — they
    warm up across queries.
    """
    cache = getattr(task, "_solver_setup", None)
    if cache is None:
        cache = {}
        task._solver_setup = cache
    entry = cache.get(affine)
    if entry is None:
        with obs.span("solver.setup", shared=True) as setup_span:
            search = MapSearch(affine, task)
            entry = (search, InternTable(search))
            setup_span.set_attr("vertices", len(search.vertices))
            setup_span.set_attr("structure", search.structure_status)
        cache[affine] = entry
    return entry


class BitsetKernel:
    """Tree-identical bitset rewrite of the reference backtracking search.

    The kernel composes a ``MapSearch`` and interns it.  Without
    ``domain_overrides`` the composed search and tables come from the
    per-(affine, task) cache (see :func:`_shared_setup`); overridden
    domains change the candidate index layout, so sliced searches build
    fresh.
    """

    def __init__(
        self,
        affine: AffineTask,
        task: Task,
        domain_overrides: Optional[DomainOverrides] = None,
    ):
        if domain_overrides:
            with obs.span("solver.setup", overridden=True) as setup_span:
                self._search = MapSearch(
                    affine, task, domain_overrides=domain_overrides
                )
                self.tables = InternTable(self._search)
                setup_span.set_attr(
                    "vertices", len(self._search.vertices)
                )
                setup_span.set_attr(
                    "structure", self._search.structure_status
                )
        else:
            self._search, self.tables = _shared_setup(affine, task)
        self.nodes_explored = 0

    # -- the attribute surface certificate extraction reads ------------
    @property
    def affine(self) -> AffineTask:
        return self._search.affine

    @property
    def task(self) -> Task:
        return self._search.task

    @property
    def vertices(self):
        return self._search.vertices

    @property
    def domains(self):
        return self._search.domains

    @property
    def domains_overridden(self) -> bool:
        return self._search.domains_overridden

    # ------------------------------------------------------------------
    def search(
        self, budget: Optional[int] = None
    ) -> Optional[Dict[ChrVertex, OutputVertex]]:
        """Drop-in for :meth:`MapSearch.search` (same tree, same counts)."""
        self.nodes_explored = 0
        search = self._search
        tables = self.tables
        vertices = search.vertices
        total = len(vertices)
        if total == 0:
            return {}
        domain_lists = [search.domains[v] for v in vertices]
        domain_bits = tables.domain_bits

        choice = [0] * total  # next candidate index to try per depth
        chosen_bit = [0] * total  # output bit of the assignment per depth
        chosen_idx = [0] * total  # candidate index of the assignment
        ok_mask = [0] * total  # allowed-candidate mask on arrival
        ok_valid = [False] * total

        depth = 0
        while True:
            if not ok_valid[depth]:
                ok_mask[depth] = self._arrival_mask(depth, chosen_bit)
                ok_valid[depth] = True
            ok = ok_mask[depth]
            bits = domain_bits[depth]
            size = len(bits)
            index = choice[depth]
            advanced = False
            nodes = self.nodes_explored
            while index < size:
                index += 1
                nodes += 1
                if budget is not None and nodes > budget:
                    self.nodes_explored = nodes
                    raise SearchBudgetExceeded(
                        f"exceeded {budget} nodes", nodes_explored=nodes
                    )
                if (ok >> (index - 1)) & 1:
                    chosen_bit[depth] = bits[index - 1]
                    chosen_idx[depth] = index - 1
                    advanced = True
                    break
            self.nodes_explored = nodes
            choice[depth] = index
            if advanced:
                if depth + 1 == total:
                    return {
                        vertices[i]: domain_lists[i][chosen_idx[i]]
                        for i in range(total)
                    }
                depth += 1
                choice[depth] = 0
                ok_valid[depth] = False
            else:
                depth -= 1
                if depth < 0:
                    return None

    # ------------------------------------------------------------------
    def _arrival_mask(self, depth: int, chosen_bit: List[int]) -> int:
        """AND of the allowed-candidate masks of every firing constraint."""
        tables = self.tables
        simplices = tables.structure.simplices
        group = tables.group
        ok = (1 << len(tables.domain_bits[depth])) - 1
        for index in tables.structure.firing[depth]:
            others = 0
            for position in simplices[index]:
                if position != depth:
                    others |= chosen_bit[position]
            ok &= tables.allowed_candidates(group[index], depth, others)
            if not ok:
                break
        return ok

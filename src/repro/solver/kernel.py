"""The bitset search kernels for the FACT decision procedure.

Two kernels, one contract:

* :class:`BitsetKernel` — the default.  **Tree-identical** to the
  legacy :class:`~repro.tasks.solvability.MapSearch`: same vertex
  order, same candidate order, same per-candidate consistency boolean,
  hence the same verdicts, the same returned maps *and the same node
  counts*.  All the speedup comes from doing each consistency test as
  one bit probe against a memoized allowed-candidate mask instead of
  building and hashing a ``frozenset`` image per firing simplex.
  Because the tree is identical, budget stubs, resume seeding and
  unsolvable certificates (which replay ``nodes_explored``
  node-for-node) are interchangeable with legacy ones.

* :class:`ForwardCheckingKernel` — opt-in (``kernel="fc"``).  Adds
  forward checking plus bounded arc-consistency propagation with
  conflict-weighted revision ordering.  Pruning is *sound* and the
  static variable order and canonical value order are preserved, so
  consistent leaves are enumerated in the same lexicographic order as
  legacy: the verdict **and the returned map** still match, but node
  counts do not — the engine caches its results under kernel-specific
  keys and never uses it for certificates or resume.

Both kernels expose the attribute surface certificate extraction reads
(``vertices``, ``domains``, ``nodes_explored``, ``domains_overridden``)
by delegating to the :class:`MapSearch` they are built from.
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

__all__ = ["BitsetKernel", "ForwardCheckingKernel"]


def _shared_setup(affine: AffineTask, task: Task):
    """The interned problem for ``(affine, task)``, built once per pair.

    The contract of this package: interning happens once per (affine,
    task) pair, not once per query, and the task-independent half of it
    (the :class:`~repro.tasks.solvability.SearchStructure` of ``L``) once
    per affine object, whatever the task.  The cache lives on
    the task object (``task._solver_setup``), so its lifetime is the
    task's own — no global registry to leak in a long-lived server —
    and repeated queries (the service traffic pattern, the engine's
    split-retry escalations, resume) pay only the search, not the
    setup.  The cached ``MapSearch`` and :class:`InternTable` are
    read-only to the kernels (per-search state lives on the kernel
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


class _KernelBase:
    """Shared setup: compose a ``MapSearch`` and intern it.

    Without ``domain_overrides`` the composed search and tables come
    from the per-(affine, task) cache (see :func:`_shared_setup`);
    overridden domains change the candidate index layout, so sliced
    searches build fresh.
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


class BitsetKernel(_KernelBase):
    """Tree-identical bitset rewrite of the legacy backtracking search."""

    kernel = "bitset"

    def search(
        self,
        budget: Optional[int] = None,
        resume_from: Optional[Dict[ChrVertex, OutputVertex]] = None,
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
        if resume_from:
            depth = self._seed(choice, chosen_bit, chosen_idx, resume_from)
            if depth == total:
                return {
                    vertices[i]: domain_lists[i][chosen_idx[i]]
                    for i in range(total)
                }
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
                    choice[depth] = index
                    raise SearchBudgetExceeded(
                        f"exceeded {budget} nodes",
                        nodes_explored=nodes,
                        partial_assignment={
                            vertices[i]: domain_lists[i][chosen_idx[i]]
                            for i in range(depth)
                        },
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

    def _seed(
        self,
        choice: List[int],
        chosen_bit: List[int],
        chosen_idx: List[int],
        resume_from: Dict[ChrVertex, OutputVertex],
    ) -> int:
        """Rebuild the DFS stack from a partial assignment.

        Mirrors ``MapSearch._seed`` exactly, including its error
        messages, so stubs flow between kernels unchanged.
        """
        search = self._search
        tables = self.tables
        structure = tables.structure
        vertices = search.vertices
        depth = 0
        for vertex in vertices:
            if vertex not in resume_from:
                break
            depth += 1
        extra = set(resume_from) - set(vertices[:depth])
        if extra:
            raise ValueError(
                "resume assignment is not an initial segment of the "
                f"vertex order ({len(extra)} stray entries)"
            )
        for index in range(depth):
            vertex = vertices[index]
            candidate = resume_from[vertex]
            domain = search.domains[vertex]
            if candidate not in domain:
                raise ValueError(
                    f"resume candidate for {vertex!r} is outside its domain"
                )
            position = domain.index(candidate)
            chosen_bit[index] = tables.domain_bits[index][position]
            chosen_idx[index] = position
            for simplex in structure.firing[index]:
                image = 0
                for member in structure.simplices[simplex]:
                    image |= chosen_bit[member]
                if image not in tables.allowed[tables.group[simplex]]:
                    raise ValueError(
                        "resume assignment violates a constraint"
                    )
            choice[index] = position + 1
        if depth < len(vertices):
            choice[depth] = 0
        return depth


class ForwardCheckingKernel(_KernelBase):
    """Forward checking + bounded arc-consistency propagation.

    On every assignment at depth ``d``:

    * constraints containing ``d`` whose members are all assigned are
      checked directly (one mask probe);
    * constraints with exactly one unassigned member have that member's
      live domain restricted to the memoized allowed-candidate mask
      (classic forward checking);
    * every restriction enqueues its position; the queue is revised to
      a bounded generalized arc consistency over constraints with
      exactly two unassigned members (supported values at one are those
      with a live supporting value at the other), ordered by descending
      conflict weight — positions whose domains wiped out most often
      propagate first — with position index as the deterministic
      tie-break.

    All pruning is sound, the variable order is static and candidate
    order canonical, so the first consistent leaf — the returned map —
    is the same one legacy/bitset find.  Node counts differ (pruned
    candidates are never visited), so this kernel is cached separately
    and excluded from certificates and resume.
    """

    kernel = "fc"

    def __init__(
        self,
        affine: AffineTask,
        task: Task,
        domain_overrides: Optional[DomainOverrides] = None,
    ):
        super().__init__(affine, task, domain_overrides=domain_overrides)
        self.conflict_weight = [0] * len(self._search.vertices)

    def search(
        self,
        budget: Optional[int] = None,
        resume_from: Optional[Dict[ChrVertex, OutputVertex]] = None,
    ) -> Optional[Dict[ChrVertex, OutputVertex]]:
        if resume_from:
            raise ValueError(
                "the fc kernel explores a pruned tree and cannot honor "
                "resume_from; use the bitset or legacy kernel to resume"
            )
        self.nodes_explored = 0
        search = self._search
        tables = self.tables
        vertices = search.vertices
        total = len(vertices)
        if total == 0:
            return {}
        domain_lists = [search.domains[v] for v in vertices]
        domain_bits = tables.domain_bits

        live = [(1 << len(domain_bits[d])) - 1 for d in range(total)]
        choice = [0] * total
        chosen_bit = [0] * total
        chosen_idx = [0] * total
        trails: List[Optional[List]] = [None] * total

        depth = 0
        while True:
            bits = domain_bits[depth]
            size = len(bits)
            index = choice[depth]
            alive = live[depth]
            advanced = False
            while index < size:
                candidate = index
                index += 1
                if not (alive >> candidate) & 1:
                    continue  # pruned by an ancestor: never visited
                self.nodes_explored += 1
                if (
                    budget is not None
                    and self.nodes_explored > budget
                ):
                    choice[depth] = index
                    raise SearchBudgetExceeded(
                        f"exceeded {budget} nodes",
                        nodes_explored=self.nodes_explored,
                        partial_assignment={
                            vertices[i]: domain_lists[i][chosen_idx[i]]
                            for i in range(depth)
                        },
                    )
                chosen_bit[depth] = bits[candidate]
                chosen_idx[depth] = candidate
                trail: List = []
                if self._propagate(depth, chosen_bit, live, trail):
                    trails[depth] = trail
                    advanced = True
                    break
                self._undo(trail, live)
            choice[depth] = index
            if advanced:
                if depth + 1 == total:
                    mapping = {
                        vertices[i]: domain_lists[i][chosen_idx[i]]
                        for i in range(total)
                    }
                    self._unwind(trails, live, depth)
                    return mapping
                depth += 1
                choice[depth] = 0
            else:
                depth -= 1
                if depth < 0:
                    return None
                self._undo(trails[depth], live)
                trails[depth] = None

    # ------------------------------------------------------------------
    def _propagate(
        self,
        depth: int,
        chosen_bit: List[int],
        live: List[int],
        trail: List,
    ) -> bool:
        """Forward-check then propagate; ``False`` on a domain wipeout."""
        tables = self.tables
        simplices = tables.structure.simplices
        group = tables.group
        involving = tables.involving
        queue: List[int] = []
        for index in involving[depth]:
            positions = simplices[index]
            unassigned = [p for p in positions if p > depth]
            if not unassigned:
                image = 0
                for member in positions:
                    image |= chosen_bit[member]
                if image not in tables.allowed[group[index]]:
                    self.conflict_weight[depth] += 1
                    return False
            elif len(unassigned) == 1:
                target = unassigned[0]
                others = 0
                for member in positions:
                    if member <= depth:
                        others |= chosen_bit[member]
                mask = tables.allowed_candidates(group[index], target, others)
                if not self._restrict(target, mask, live, trail, queue):
                    return False
        weights = self.conflict_weight
        while queue:
            queue.sort(key=lambda p: (-weights[p], p))
            source = queue.pop(0)
            for index in involving[source]:
                positions = simplices[index]
                unassigned = [p for p in positions if p > depth]
                if len(unassigned) != 2 or source not in unassigned:
                    continue
                target = (
                    unassigned[0]
                    if unassigned[1] == source
                    else unassigned[1]
                )
                others = 0
                for member in positions:
                    if member <= depth:
                        others |= chosen_bit[member]
                supported = tables.supported_candidates(
                    group[index], target, others, source, live[source]
                )
                if not self._restrict(
                    target, supported, live, trail, queue
                ):
                    return False
        return True

    def _restrict(
        self,
        position: int,
        mask: int,
        live: List[int],
        trail: List,
        queue: List[int],
    ) -> bool:
        narrowed = live[position] & mask
        if narrowed == live[position]:
            return True
        trail.append((position, live[position]))
        live[position] = narrowed
        if not narrowed:
            self.conflict_weight[position] += 1
            return False
        if position not in queue:
            queue.append(position)
        return True

    @staticmethod
    def _undo(trail: Optional[List], live: List[int]) -> None:
        if trail:
            for position, previous in reversed(trail):
                live[position] = previous

    def _unwind(
        self, trails: List[Optional[List]], live: List[int], depth: int
    ) -> None:
        """Restore all live domains after a successful search."""
        for level in range(depth, -1, -1):
            self._undo(trails[level], live)
            trails[level] = None

"""The FACT decision procedure: search for a carried chromatic map.

Theorem 16 reduces solvability of ``T = (I, O, Delta)`` in a fair
``A``-model to the existence of a chromatic simplicial map
``phi : R_A^l(I) -> O`` carried by ``Delta``.  For the small systems the
paper's figures live in (n = 3, 4; l = 1, 2) existence is decidable by
backtracking over vertex assignments:

* variables — vertices of the affine complex ``L``;
* domains — output vertices of matching color whose singleton is
  allowed by ``Delta`` of the vertex's witnessed participation;
* constraints — for every simplex ``sigma`` of ``L``, the image must
  belong to ``Delta(carrier(sigma, s))``.

Because task specifications here are downward closed, constraints are
checked exactly once, when a simplex's last vertex is assigned, and
failures surface at the smallest violating face.
"""

from __future__ import annotations

import heapq
from array import array
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..core.affine import AffineTask
from ..topology.chromatic import ChrVertex, ProcessId, color_of
from ..topology.simplex import vertex_key
from ..topology.subdivision import carrier_in_s
from .task import OutputVertex, Task

__all__ = [
    "DomainOverrides",
    "MapSearch",
    "SearchBudgetExceeded",
    "SearchStructure",
    "find_carried_map",
    "minimal_set_consensus",
    "search_structure",
    "solves_set_consensus",
    "split_search_domains",
    "verify_carried_map",
]


class SearchBudgetExceeded(Exception):
    """The backtracking search hit its node budget before deciding.

    ``nodes_explored`` counts the assignments tried before giving up;
    the engine's split-retry (:mod:`repro.engine.jobs`) reads it to
    report the budget it burned.
    """

    def __init__(self, message: str, *, nodes_explored: int = 0):
        super().__init__(message)
        self.nodes_explored = nodes_explored


DomainOverrides = Dict[ChrVertex, Tuple[OutputVertex, ...]]


class SearchStructure:
    """The task-independent half of :class:`MapSearch` set-up for one ``L``.

    Everything the search needs that depends on the complex alone, built
    once on dense vertex ids and shared by every task, every ``k`` and
    every split-retry slice on the same :class:`AffineTask` (see
    :func:`search_structure`):

    * ``vertices`` — the constrained-first assignment order, and
      ``rank`` its inverse (vertex -> position);
    * ``key_positions`` — the position of each vertex in ``vertex_key``
      order (a certificate lists its map in that order);
    * ``vertex_participation`` — per position, the vertex's witnessed
      participation ``carrier(v, s)``;
    * ``simplices`` — every simplex of ``L`` in ``simplex_key`` order,
      as the ascending tuple of its members' positions (the last one is
      where its constraint fires);
    * ``participation`` — per simplex, ``carrier(sigma, s)``, one shared
      ``frozenset`` per distinct participation;
    * ``firing`` — per position, the indices of the simplices whose
      constraint fires there, in simplex order (an unsigned ``array``:
      tens of thousands of small ints cost 4 bytes each, not 36).

    Ids are ranks in ``vertex_key`` order — structural keys, not
    ``repr``, so the order and with it node counts and returned maps are
    reproducible across runs, platforms and worker processes — and
    sorting id tuples by ``(size, ids)`` is ``simplex_key`` order
    without building a key.
    """

    __slots__ = (
        "vertices",
        "rank",
        "key_positions",
        "vertex_participation",
        "simplices",
        "participation",
        "firing",
    )

    def __init__(self, complex_):
        keyed = sorted(complex_.vertices, key=vertex_key)
        key_id = {vertex: index for index, vertex in enumerate(keyed)}
        # Carriers lower member-wise: carrier(sigma, s) is the union of
        # its vertices' carriers, kept as a process bitmask per id and
        # interned as one frozenset per distinct mask.
        shared: Dict[int, FrozenSet[ProcessId]] = {}
        masks: List[int] = []
        for vertex in keyed:
            lowered = carrier_in_s((vertex,))
            mask = 0
            for process in lowered:
                mask |= 1 << process
            shared.setdefault(mask, lowered)
            masks.append(mask)
        closure = set()
        for facet in complex_.facets:
            ids = sorted(map(key_id.__getitem__, facet))
            for size in range(1, len(ids) + 1):
                closure.update(combinations(ids, size))
        ordered = sorted(closure, key=lambda ids: (len(ids), ids))
        adjacency: List[List[int]] = [[] for _ in keyed]
        for ids in ordered:
            if len(ids) == 2:
                a, b = ids
                adjacency[a].append(b)
                adjacency[b].append(a)
        sizes = [bin(mask).count("1") for mask in masks]
        order = _greedy_order(adjacency, sizes)

        position = [0] * len(keyed)
        for index, vertex_id in enumerate(order):
            position[vertex_id] = index
        self.vertices: List[ChrVertex] = [keyed[i] for i in order]
        self.rank: Dict[ChrVertex, int] = {
            vertex: index for index, vertex in enumerate(self.vertices)
        }
        self.key_positions: List[int] = position
        self.vertex_participation: List[FrozenSet[ProcessId]] = [
            shared[masks[i]] for i in order
        ]
        self.simplices: List[Tuple[int, ...]] = []
        self.participation: List[FrozenSet[ProcessId]] = []
        self.firing: List[array] = [array("I") for _ in keyed]
        for index, ids in enumerate(ordered):
            positions = tuple(sorted(map(position.__getitem__, ids)))
            mask = 0
            for vertex_id in ids:
                mask |= masks[vertex_id]
            participation = shared.get(mask)
            if participation is None:
                participation = shared[mask] = frozenset(
                    process
                    for process in range(mask.bit_length())
                    if mask >> process & 1
                )
            self.simplices.append(positions)
            self.participation.append(participation)
            self.firing[positions[-1]].append(index)


def _greedy_order(adjacency: List[List[int]], sizes: List[int]) -> List[int]:
    """Constrained-first order: the most already-placed neighbours first,
    then the smallest witnessed participation, then ``vertex_key`` rank.

    A lazy max-heap over adjacency counts: placing a vertex pushes a new
    entry for each unplaced neighbour, and stale entries (a vertex
    placed since, or a count that grew since) are skipped when popped.
    Counts only grow, so a vertex's live entry is its smallest, and the
    first live pop is the minimum of the total key over the remaining
    vertices.
    """
    heap = [(0, size, vertex_id) for vertex_id, size in enumerate(sizes)]
    heapq.heapify(heap)
    placed_neighbours = [0] * len(sizes)
    placed = [False] * len(sizes)
    order: List[int] = []
    while heap:
        count, size, vertex_id = heapq.heappop(heap)
        if placed[vertex_id] or -count != placed_neighbours[vertex_id]:
            continue
        placed[vertex_id] = True
        order.append(vertex_id)
        for neighbour in adjacency[vertex_id]:
            if not placed[neighbour]:
                placed_neighbours[neighbour] += 1
                heapq.heappush(
                    heap,
                    (-placed_neighbours[neighbour], sizes[neighbour], neighbour),
                )
    return order


def search_structure(affine: AffineTask) -> SearchStructure:
    """The :class:`SearchStructure` of ``affine``, built once per object.

    Cached on the affine task itself (``affine._search_structure``), as
    the per-task solver set-up is cached on the task: its lifetime is
    the object's own, with no global registry to leak.
    """
    structure = getattr(affine, "_search_structure", None)
    if structure is None:
        structure = SearchStructure(affine.complex)
        affine._search_structure = structure
    return structure


class MapSearch:
    """Backtracking search for a carried chromatic simplicial map.

    ``domain_overrides`` restricts selected vertices to a subset of
    their natural domains (preserving the canonical candidate order);
    the engine uses this to split one search into independent sub-jobs
    whose union covers the original space.

    Set-up has two halves: the task-independent
    :class:`SearchStructure` of ``L`` (shared, see
    :func:`search_structure`) and the per-task candidate domains.
    """

    def __init__(
        self,
        affine: AffineTask,
        task: Task,
        domain_overrides: Optional[DomainOverrides] = None,
    ):
        if affine.n != task.n:
            raise ValueError("affine task and task disagree on n")
        self.affine = affine
        self.task = task
        self.nodes_explored = 0

        self.structure = self._structure(affine)
        self.vertices = self.structure.vertices
        self.rank = self.structure.rank
        self.domains: Dict[ChrVertex, List[OutputVertex]] = self._domains()
        #: True when ``domain_overrides`` restricted any domain; such a
        #: search covers only a slice of the space, so its exhaustion is
        #: not a full refutation (certificates refuse to cite it).
        self.domains_overridden = bool(domain_overrides)
        if domain_overrides:
            for vertex, allowed in domain_overrides.items():
                if vertex not in self.domains:
                    raise ValueError(
                        f"override for {vertex!r}, not a vertex of L"
                    )
                allowed_set = set(allowed)
                self.domains[vertex] = [
                    out for out in self.domains[vertex] if out in allowed_set
                ]

    # ------------------------------------------------------------------
    def _structure(self, affine: AffineTask) -> SearchStructure:
        #: ``"reused"`` when the structure came from an earlier search
        #: on the same affine object, ``"built"`` when this one paid it.
        self.structure_status = (
            "built"
            if getattr(affine, "_search_structure", None) is None
            else "reused"
        )
        return search_structure(affine)

    def _domains(self) -> Dict[ChrVertex, List[OutputVertex]]:
        """Candidate domains, one list per distinct (participation, color).

        Vertices sharing both share the list object; nothing mutates a
        domain in place (overrides replace the entry).
        """
        memo: Dict[Tuple[FrozenSet[ProcessId], ProcessId], List] = {}
        domains: Dict[ChrVertex, List[OutputVertex]] = {}
        participation = self.structure.vertex_participation
        for position, vertex in enumerate(self.vertices):
            key = (participation[position], color_of(vertex))
            domain = memo.get(key)
            if domain is None:
                domain = memo[key] = self._domain(*key)
            domains[vertex] = domain
        return domains

    def _domain(
        self, participation: FrozenSet[ProcessId], color: ProcessId
    ) -> List[OutputVertex]:
        allowed = self.task.allowed_outputs(participation)
        candidates = sorted(
            {
                out
                for sigma in allowed
                for out in sigma
                if out.process == color
            },
            key=vertex_key,
        )
        return [
            out for out in candidates if frozenset([out]) in allowed
        ]

    # ------------------------------------------------------------------
    def search(
        self, budget: Optional[int] = None
    ) -> Optional[Dict[ChrVertex, OutputVertex]]:
        """Find a carried map, or return ``None`` when none exists.

        Raises :class:`SearchBudgetExceeded` if ``budget`` assignments
        are exhausted before the search concludes.
        """
        assignment: Dict[ChrVertex, OutputVertex] = {}
        self.nodes_explored = 0
        structure = self.structure
        vertices = self.vertices
        allowed_outputs = self.task.allowed_outputs

        def consistent(position: int) -> bool:
            for index in structure.firing[position]:
                image = frozenset(
                    assignment[vertices[member]]
                    for member in structure.simplices[index]
                )
                if image not in allowed_outputs(
                    structure.participation[index]
                ):
                    return False
            return True

        # Iterative depth-first search (the domain can exceed Python's
        # recursion limit at n = 4): choice_index[d] is the next
        # candidate to try for the vertex at depth d.
        total = len(self.vertices)
        if total == 0:
            return {}
        choice_index = [0] * total
        depth = 0
        while True:
            vertex = self.vertices[depth]
            domain = self.domains[vertex]
            advanced = False
            while choice_index[depth] < len(domain):
                candidate = domain[choice_index[depth]]
                choice_index[depth] += 1
                self.nodes_explored += 1
                if budget is not None and self.nodes_explored > budget:
                    raise SearchBudgetExceeded(
                        f"exceeded {budget} nodes",
                        nodes_explored=self.nodes_explored,
                    )
                assignment[vertex] = candidate
                if consistent(depth):
                    advanced = True
                    break
                del assignment[vertex]
            if advanced:
                if depth + 1 == total:
                    return dict(assignment)
                depth += 1
                choice_index[depth] = 0
            else:
                if vertex in assignment:
                    del assignment[vertex]
                depth -= 1
                if depth < 0:
                    return None
                assignment.pop(self.vertices[depth], None)


def split_search_domains(
    affine: AffineTask,
    task: Task,
    parts: int = 2,
    domain_overrides: Optional[DomainOverrides] = None,
) -> List[DomainOverrides]:
    """Partition a :class:`MapSearch` space into independent sub-spaces.

    Splits the domain of the first vertex (in assignment order) that
    still has at least two candidates into ``parts`` contiguous chunks,
    preserving the canonical candidate order.  The returned override
    dicts describe disjoint sub-searches whose union covers the
    original space, and running them in list order visits assignments
    in exactly the order the undivided search would — so "first
    sub-search that finds a map" returns the same map the full search
    returns.

    Returns ``[]`` when no vertex has a splittable domain (the search
    space is a single branch and cannot be partitioned this way).
    """
    if parts < 2:
        raise ValueError("need at least two parts to split")
    search = MapSearch(affine, task, domain_overrides=domain_overrides)
    for vertex in search.vertices:
        domain = search.domains[vertex]
        if len(domain) >= 2:
            chunk_count = min(parts, len(domain))
            base, extra = divmod(len(domain), chunk_count)
            splits: List[DomainOverrides] = []
            start = 0
            for index in range(chunk_count):
                size = base + (1 if index < extra else 0)
                chunk = tuple(domain[start : start + size])
                start += size
                overrides: DomainOverrides = dict(domain_overrides or {})
                overrides[vertex] = chunk
                splits.append(overrides)
            return splits
    return []


def find_carried_map(
    affine: AffineTask,
    task: Task,
    budget: Optional[int] = None,
) -> Optional[Dict[ChrVertex, OutputVertex]]:
    """Convenience wrapper around :class:`MapSearch`."""
    return MapSearch(affine, task).search(budget)


def verify_carried_map(
    affine: AffineTask,
    task: Task,
    mapping: Dict[ChrVertex, OutputVertex],
) -> bool:
    """Independently re-check a candidate solution.

    Confirms chromaticity and that every simplex's image is allowed by
    ``Delta`` of its witnessed participation.
    """
    for vertex, out in mapping.items():
        if color_of(vertex) != out.process:
            return False
    for sigma in affine.complex.simplices:
        image = frozenset(mapping[v] for v in sigma)
        if image not in task.allowed_outputs(carrier_in_s(sigma)):
            return False
    return True


def solves_set_consensus(
    affine: AffineTask,
    k: int,
    budget: Optional[int] = None,
) -> bool:
    """Is k-set consensus solvable by one shot of the affine task?"""
    from .set_consensus import set_consensus_task

    task = set_consensus_task(affine.n, k)
    return MapSearch(affine, task).search(budget) is not None


def minimal_set_consensus(
    affine: AffineTask,
    budget: Optional[int] = None,
) -> int:
    """The smallest ``k`` such that one shot of ``L`` solves k-set consensus.

    By Theorem 16 (plus the BG impossibility results the paper builds
    on) this equals ``setcon(A)`` when ``L = R_A`` for a fair adversary
    ``A`` with ``alpha(Pi) = setcon(A)``.
    """
    for k in range(1, affine.n + 1):
        if solves_set_consensus(affine, k, budget):
            return k
    raise AssertionError("n-set consensus is always solvable")

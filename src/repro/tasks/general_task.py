"""General tasks: input complexes beyond the fixed-input simplex.

The FACT statement applies the affine task to the *input complex*:
``φ : R_A^ℓ(I) → O``.  The fixed-input machinery elsewhere in
:mod:`repro.tasks` takes ``I = s``; this module adds genuine input
complexes — each process starts with one of several possible inputs —
which is what separates, e.g., binary consensus (FLP-impossible
wait-free) from its trivially solvable fixed-input cousin.

Construction: an input complex ``I`` is a chromatic complex over
:class:`InputVertex` ``(process, value)`` vertices.  ``L(I)`` replaces
every facet of ``I`` with a copy of the affine task ``L``, transported
by the chromatic isomorphism lifting colors to input vertices — shared
input faces induce shared subdivision vertices, so the copies glue
exactly as the subdivision functor demands.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, NamedTuple

from ..core.affine import AffineTask, lift_vertex
from ..topology.chromatic import ChromaticComplex, ChrVertex, ProcessId
from ..topology.simplex import Simplex
from .task import OutputVertex


class InputVertex(NamedTuple):
    """An input assignment ``(process, value)``; colored by process."""

    process: ProcessId
    value: Hashable

    @property
    def color(self) -> ProcessId:
        return self.process

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"In(p{self.process}={self.value!r})"


def input_complex_from_assignments(
    n: int, values_per_process: Dict[ProcessId, Iterable[Hashable]]
) -> ChromaticComplex:
    """The input complex of all full assignments from per-process menus.

    Facets are one choice of value per process; faces model partial
    participation with those inputs.
    """
    menus = [sorted(values_per_process[pid], key=repr) for pid in range(n)]
    facets = [
        frozenset(
            InputVertex(pid, choice[pid]) for pid in range(n)
        )
        for choice in product(*menus)
    ]
    return ChromaticComplex(facets)


def binary_input_complex(n: int) -> ChromaticComplex:
    """Every process may start with 0 or 1 — the FLP input complex."""
    return input_complex_from_assignments(
        n, {pid: (0, 1) for pid in range(n)}
    )


def subdivide_input_complex(
    affine: AffineTask, inputs: ChromaticComplex
) -> ChromaticComplex:
    """``L(I)``: plant a copy of ``L`` inside every facet of ``I``."""
    facets: List[Simplex] = []
    for input_facet in inputs.facets:
        mapping = {vertex.color: vertex for vertex in input_facet}
        if len(mapping) != affine.n:
            continue
        for task_facet in affine.complex.facets:
            facets.append(
                frozenset(
                    lift_vertex(v, mapping) for v in task_facet
                )
            )
    return ChromaticComplex(facets)


def base_inputs(vertex: ChrVertex) -> FrozenSet[InputVertex]:
    """The input vertices a subdivision vertex of ``L(I)`` witnessed."""
    collected: set = set()
    stack = [vertex]
    while stack:
        current = stack.pop()
        for member in current.carrier:
            if isinstance(member, ChrVertex):
                stack.append(member)
            else:
                collected.add(member)
    return frozenset(collected)


def base_inputs_of_simplex(sigma: Iterable[ChrVertex]) -> FrozenSet[InputVertex]:
    """Union of witnessed inputs over a simplex of ``L(I)``."""
    result: set = set()
    for vertex in sigma:
        result |= base_inputs(vertex)
    return frozenset(result)


class GeneralTask:
    """A task with a genuine input complex.

    ``delta(inputs)`` maps a simplex of ``I`` (a frozenset of
    :class:`InputVertex`) to the allowed output simplices.
    """

    def __init__(
        self,
        n: int,
        input_complex: ChromaticComplex,
        delta: Callable[[FrozenSet[InputVertex]], FrozenSet[Simplex]],
        name: str = "general-task",
    ):
        self.n = n
        self.input_complex = input_complex
        self._delta = delta
        self.name = name
        self._cache: Dict[FrozenSet[InputVertex], FrozenSet[Simplex]] = {}

    def allowed_outputs(
        self, inputs: FrozenSet[InputVertex]
    ) -> FrozenSet[Simplex]:
        inputs = frozenset(inputs)
        if inputs not in self._cache:
            self._cache[inputs] = frozenset(self._delta(inputs))
        return self._cache[inputs]

    def __repr__(self) -> str:
        return f"GeneralTask({self.name}, n={self.n})"


def binary_consensus_task(n: int) -> GeneralTask:
    """Binary consensus: decide one value, some participant's input."""

    def delta(inputs: FrozenSet[InputVertex]) -> FrozenSet[Simplex]:
        participants = sorted(vertex.process for vertex in inputs)
        values = {vertex.value for vertex in inputs}
        result = set()
        for value in values:
            for size in range(1, len(participants) + 1):
                from itertools import combinations

                for deciders in combinations(participants, size):
                    result.add(
                        frozenset(
                            OutputVertex(pid, value) for pid in deciders
                        )
                    )
        return frozenset(result)

    return GeneralTask(
        n, binary_input_complex(n), delta, name="binary-consensus"
    )


def binary_k_set_consensus_task(n: int, k: int) -> GeneralTask:
    """Binary k-set consensus over the FLP input complex."""

    def delta(inputs: FrozenSet[InputVertex]) -> FrozenSet[Simplex]:
        participants = sorted(vertex.process for vertex in inputs)
        values = sorted({vertex.value for vertex in inputs}, key=repr)
        result = set()
        from itertools import combinations

        for size in range(1, len(participants) + 1):
            for deciders in combinations(participants, size):
                for chosen in product(values, repeat=size):
                    if len(set(chosen)) <= k:
                        result.add(
                            frozenset(
                                OutputVertex(pid, value)
                                for pid, value in zip(deciders, chosen)
                            )
                        )
        return frozenset(result)

    return GeneralTask(
        n,
        binary_input_complex(n),
        delta,
        name=f"binary-{k}-set-consensus",
    )


class GeneralMapSearch:
    """Search ``φ : L(I) → O`` carried by a general task's Δ.

    Same iterative backtracking as the fixed-input search, with
    constraints evaluated against witnessed *input* carriers.
    """

    def __init__(self, affine: AffineTask, task: GeneralTask):
        self.affine = affine
        self.task = task
        self.domain_complex = subdivide_input_complex(
            affine, task.input_complex
        )
        self.simplices = sorted(
            self.domain_complex.simplices, key=lambda s: (len(s), repr(s))
        )
        self.inputs_of: Dict[Simplex, FrozenSet[InputVertex]] = {
            sigma: base_inputs_of_simplex(sigma) for sigma in self.simplices
        }
        self.vertices = self._order_vertices()
        self.rank = {v: i for i, v in enumerate(self.vertices)}
        self.firing: Dict[ChrVertex, List[Simplex]] = {
            v: [] for v in self.vertices
        }
        for sigma in self.simplices:
            last = max(sigma, key=lambda v: self.rank[v])
            self.firing[last].append(sigma)
        self.domains = {v: self._domain(v) for v in self.vertices}
        self.nodes_explored = 0

    def _order_vertices(self) -> List[ChrVertex]:
        adjacency: Dict[ChrVertex, set] = {
            v: set() for v in self.domain_complex.vertices
        }
        for sigma in self.simplices:
            if len(sigma) == 2:
                a, b = tuple(sigma)
                adjacency[a].add(b)
                adjacency[b].add(a)
        ordered: List[ChrVertex] = []
        placed: set = set()
        remaining = set(self.domain_complex.vertices)
        while remaining:
            best = min(
                remaining,
                key=lambda v: (
                    -len(adjacency[v] & placed),
                    len(self.inputs_of.get(frozenset([v]), frozenset())),
                    repr(v),
                ),
            )
            ordered.append(best)
            placed.add(best)
            remaining.remove(best)
        return ordered

    def _domain(self, vertex: ChrVertex) -> List[OutputVertex]:
        allowed = self.task.allowed_outputs(
            self.inputs_of[frozenset([vertex])]
        )
        color = vertex.color
        return sorted(
            {
                out
                for sigma in allowed
                for out in sigma
                if out.process == color and frozenset([out]) in allowed
            },
            key=repr,
        )

    def search(self, budget: int | None = None):
        assignment: Dict[ChrVertex, OutputVertex] = {}
        total = len(self.vertices)
        if total == 0:
            return {}

        def consistent(vertex: ChrVertex) -> bool:
            for sigma in self.firing[vertex]:
                image = frozenset(assignment[v] for v in sigma)
                if image not in self.task.allowed_outputs(
                    self.inputs_of[sigma]
                ):
                    return False
            return True

        from .solvability import SearchBudgetExceeded

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
                        f"exceeded {budget} nodes"
                    )
                assignment[vertex] = candidate
                if consistent(vertex):
                    advanced = True
                    break
                del assignment[vertex]
            if advanced:
                if depth + 1 == total:
                    return dict(assignment)
                depth += 1
                choice_index[depth] = 0
            else:
                depth -= 1
                if depth < 0:
                    return None
                assignment.pop(self.vertices[depth], None)


def general_task_solvable(
    affine: AffineTask,
    task: GeneralTask,
    budget: int | None = None,
) -> bool:
    """Is the general task solvable by one shot of the affine task?"""
    return GeneralMapSearch(affine, task).search(budget) is not None

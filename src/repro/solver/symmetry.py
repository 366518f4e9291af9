"""Symmetry-reduced search kernel: quotient the DFS by verified automorphisms.

The paper's central adversary classes are *symmetric* — membership of a
live set depends only on its size (``Adversary.is_symmetric``), so the
affine tasks ``R_A`` they induce are invariant under relabeling the
processes.  The FACT constraint problem inherits that invariance: a
process permutation ``pi`` acts on the affine vertices (recursively,
through nested ``ChrVertex`` carriers) and on the output vertices, and
when that action maps domains onto domains and constraints onto
constraints it maps solutions onto solutions.  Branches of the DFS that
differ by such an action are redundant: exploring one decides all.

:class:`SymmetryKernel` exploits this with **orbit-representative
pruning under setwise prefix stabilizers**:

* the candidate group is seeded from ``S_n`` — every process
  permutation, each tried with two value actions (relabel process ids
  inside decision values, or leave values fixed);
* every candidate is **verified against the interned CSP itself**
  (domain bijections position-by-position, constraint table preserved
  allowed-mask-for-allowed-mask) before it is admitted.  Verification
  is what makes the quotient *sound*: the heuristic value action only
  affects how much symmetry is found, never correctness;
* the kernel searches under its **own vertex order**: the legacy
  constrained-first order, except that placing a vertex places its
  whole ``S_n``-orbit contiguously.  Prefixes are then unions of
  complete orbits (plus one partial orbit at the tail), which is what
  lets automorphisms act *within* a prefix instead of mapping it out
  of the assigned region — the reason this kernel's node counts (and
  possibly its returned map) legitimately differ from legacy's;
* during the DFS, at depth ``d`` an automorphism is *live* when it
  fixes position ``d`` as a variable and **setwise stabilizes the
  assigned prefix** — it permutes the assigned ``(position, value)``
  pairs among themselves, so it maps the current partial assignment to
  itself.  Candidates in one orbit under the live set are
  interchangeable (the action carries any completing solution of one
  branch to a completing solution of the other), so only the
  minimal-index representative of each orbit is tried.

Verdicts are exact (an automorphism maps solutions to solutions, so a
skipped branch can only contain solutions when its representative's
branch does); the returned map is a **concrete, fully valid** carried
map — pruning skips branches, it never abstracts the assignment, so
de-quotienting a found map is the identity and
``verify_carried_map``/``witness.solvable_cert`` accept the result
as-is.  Node counts shrink on symmetric instances (skipped subtrees
are never visited) and are counted in the kernel's own tree, so like
the ``fc`` kernel this one is cached under kernel-specific keys and
coerced to a tree-identical kernel for certificates and resume.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..tasks.solvability import (
    DomainOverrides,
    MapSearch,
    SearchBudgetExceeded,
    SearchStructure,
)
from ..tasks.task import OutputVertex, Task
from ..core.affine import AffineTask
from ..topology.chromatic import ChrVertex
from .interning import InternTable
from .kernel import BitsetKernel, _shared_setup

try:  # numpy is optional: the scalar paths are complete fallbacks
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via REPRO_NO_NUMPY
    _np = None

_SETUP_KEY = "symmetry"

__all__ = [
    "Automorphism",
    "SymmetryKernel",
    "automorphism_group",
    "compute_automorphisms",
]

#: ``S_n`` enumeration is factorial; beyond this the candidate pool is
#: not enumerated and the kernel degenerates to plain bitset search.
_MAX_GROUP_N = 6


class Automorphism:
    """One verified symmetry of an interned FACT constraint problem.

    ``perm`` is the process permutation, ``value_action`` how decision
    values were transported (``"relabel"`` or ``"fixed"``),
    ``var_perm`` the induced permutation of assignment positions and
    ``val_maps[i][j]`` the candidate index at position ``var_perm[i]``
    that candidate ``j`` at position ``i`` maps to.  Instances hash by
    identity, which is what the kernel's per-depth memo keys rely on.
    """

    __slots__ = ("perm", "value_action", "var_perm", "val_maps")

    def __init__(
        self,
        perm: Tuple[int, ...],
        value_action: str,
        var_perm: Tuple[int, ...],
        val_maps: Tuple[Tuple[int, ...], ...],
    ):
        self.perm = perm
        self.value_action = value_action
        self.var_perm = var_perm
        self.val_maps = val_maps

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Automorphism(perm={self.perm}, action={self.value_action})"


# ----------------------------------------------------------------------
# The group action
# ----------------------------------------------------------------------
def _act_input_vertex(perm: Tuple[int, ...], vertex):
    """Relabel processes through arbitrarily nested ``ChrVertex`` carriers."""
    if isinstance(vertex, int):
        return perm[vertex]
    if isinstance(vertex, ChrVertex):
        return ChrVertex(
            perm[vertex.color],
            frozenset(_act_input_vertex(perm, m) for m in vertex.carrier),
        )
    raise TypeError(f"cannot act on vertex {vertex!r}")


def _act_value(perm: Tuple[int, ...], value):
    """Heuristically relabel process ids inside a decision value.

    Small ints in ``range(n)`` read as process ids (the convention of
    consensus-style tasks, where the decided value names a proposer);
    containers recurse; everything else rides along unchanged.  This is
    only a *candidate* action — verification against the interned CSP
    decides whether the resulting map is an automorphism.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return perm[value] if 0 <= value < len(perm) else value
    if isinstance(value, tuple):
        return tuple(_act_value(perm, item) for item in value)
    if isinstance(value, frozenset):
        return frozenset(_act_value(perm, item) for item in value)
    return value


def _act_output(
    perm: Tuple[int, ...], value_action: str, out: OutputVertex
) -> OutputVertex:
    value = (
        _act_value(perm, out.value) if value_action == "relabel" else out.value
    )
    return OutputVertex(perm[out.process], value)


# ----------------------------------------------------------------------
# Candidate verification
# ----------------------------------------------------------------------
def _validate(
    perm: Tuple[int, ...],
    value_action: str,
    search: MapSearch,
    tables: InternTable,
    constraint_allowed: Dict[frozenset, frozenset],
    id_to_index: Optional[List[Dict[int, int]]] = None,
    check_constraints: bool = True,
) -> Optional[Automorphism]:
    """Verify one ``(perm, value_action)`` candidate against the CSP.

    Returns the :class:`Automorphism` when the action is a bijection of
    positions and candidates that maps every domain onto the image
    position's domain and every compiled constraint onto a compiled
    constraint with the identical allowed-mask set — or ``None``.

    ``check_constraints=False`` skips the (expensive) constraint-table
    check; it is sound **only** when the same abstract ``(perm,
    value_action)`` action already passed it against another encoding
    of the same CSP — constraint preservation is a property of the
    action on simplices and output vertices, not of the interning
    (see :func:`_translate_group`).
    """
    vertices = search.vertices
    total = len(vertices)

    # Positions: the vertex action must permute the assignment order.
    var_perm_list: List[int] = []
    for vertex in vertices:
        try:
            image = _act_input_vertex(perm, vertex)
        except TypeError:
            return None
        position = tables.position.get(image)
        if position is None:
            return None
        var_perm_list.append(position)
    var_perm = tuple(var_perm_list)

    # Output ids: the output action must permute the interned universe.
    out_map: List[Optional[int]] = [None] * len(tables.out_index)
    for out, out_id in tables.out_index.items():
        target = tables.out_index.get(_act_output(perm, value_action, out))
        if target is None:
            return None
        out_map[out_id] = target
    if len(set(out_map)) != len(out_map):
        return None

    # Domains: candidate j at position i must land at a candidate of
    # position var_perm[i], giving a bijection of equal-size domains.
    if id_to_index is None:
        id_to_index = _id_to_index(tables)
    val_maps: List[Tuple[int, ...]] = []
    for i in range(total):
        j = var_perm[i]
        bits_i = tables.domain_bits[i]
        index_j = id_to_index[j]
        if len(bits_i) != len(index_j):
            return None
        row: List[int] = []
        for bit in bits_i:
            mapped = index_j.get(out_map[bit.bit_length() - 1])
            if mapped is None:
                return None
            row.append(mapped)
        val_maps.append(tuple(row))

    if not check_constraints:
        return Automorphism(perm, value_action, var_perm, tuple(val_maps))

    # Constraints: every compiled constraint must map onto one with the
    # same allowed-mask set.  Allowed sets are shared objects (one per
    # participation class), so they are interned to small class ids
    # once and the per-constraint check is an integer compare; the
    # remapped class of each distinct allowed object is memoized per
    # candidate.
    class_of, class_by_content = _allowed_classes(constraint_allowed)
    remapped_class: Dict[int, Optional[int]] = {}
    for positions, allowed in constraint_allowed.items():
        image_positions = frozenset(var_perm[p] for p in positions)
        image_allowed = constraint_allowed.get(image_positions)
        if image_allowed is None:
            return None
        key = id(allowed)
        moved = remapped_class.get(key)
        if moved is None and key not in remapped_class:
            remapped = _remap_allowed(allowed, out_map)
            moved = (
                None
                if remapped is None
                else class_by_content.get(remapped)
            )
            remapped_class[key] = moved
        if moved is None or moved != class_of[id(image_allowed)]:
            return None
    return Automorphism(perm, value_action, var_perm, tuple(val_maps))


def _allowed_classes(constraint_allowed: Dict[frozenset, frozenset]):
    """The allowed-class interning of a ``constraint_allowed`` dict.

    :class:`_ClassifiedConstraints` (what :func:`compute_automorphisms`
    builds) carries it precomputed — one interning pass serves all
    ``S_n`` candidates; a plain dict pays for a fresh pass.
    """
    if isinstance(constraint_allowed, _ClassifiedConstraints):
        return constraint_allowed.class_of, constraint_allowed.by_content
    classified = _ClassifiedConstraints(constraint_allowed)
    return classified.class_of, classified.by_content


class _ClassifiedConstraints(dict):
    """``constraint_allowed`` with its allowed-class interning attached."""

    def __init__(self, constraint_allowed: Dict[frozenset, frozenset]):
        super().__init__(constraint_allowed)
        class_of: Dict[int, int] = {}
        by_content: Dict[frozenset, int] = {}
        for allowed in self.values():
            if id(allowed) in class_of:
                continue
            existing = by_content.get(allowed)
            if existing is None:
                existing = len(by_content)
                by_content[allowed] = existing
            class_of[id(allowed)] = existing
        self.class_of = class_of
        self.by_content = by_content


def _id_to_index(tables: InternTable) -> List[Dict[int, int]]:
    """Per position, the out-id -> candidate-index view of the domain."""
    return [
        {bit.bit_length() - 1: idx for idx, bit in enumerate(bits)}
        for bits in tables.domain_bits
    ]


def _remap_allowed(
    allowed: frozenset, out_map: List[Optional[int]]
) -> Optional[frozenset]:
    """Push an allowed-mask set through the output bijection.

    Vectorized with numpy when available and the interned output
    universe fits one machine word; the scalar path walks set bits.
    """
    if _np is not None and len(out_map) <= 63 and allowed:
        masks = _np.fromiter(allowed, dtype=_np.uint64, count=len(allowed))
        ids = _np.arange(len(out_map), dtype=_np.uint64)
        bits = (masks[:, None] >> ids) & 1
        targets = _np.fromiter(
            (0 if t is None else t for t in out_map),
            dtype=_np.uint64,
            count=len(out_map),
        )
        moved = (bits << targets).sum(axis=1, dtype=_np.uint64)
        return frozenset(int(m) for m in moved)
    masks = set()
    for mask in allowed:
        result = 0
        remaining = mask
        while remaining:
            low = remaining & -remaining
            target = out_map[low.bit_length() - 1]
            if target is None:
                return None
            result |= 1 << target
            remaining ^= low
        masks.add(result)
    return frozenset(masks)


def compute_automorphisms(
    search: MapSearch, tables: InternTable
) -> Tuple[Automorphism, ...]:
    """Every verified non-identity automorphism seeded from ``S_n``.

    Each process permutation is tried with the value-relabeling action
    first, then the value-fixing action; the first that verifies is
    kept (trying both matters: ``id``-valued tasks need relabeling,
    input-independent tasks need fixing).  The identity is omitted —
    it stabilizes everything and prunes nothing.
    """
    n = search.affine.n
    if n > _MAX_GROUP_N:
        return ()
    constraint_allowed = _ClassifiedConstraints(
        {
            frozenset(constraint.positions): constraint.allowed
            for bucket in tables.firing
            for constraint in bucket
        }
    )
    identity = tuple(range(n))
    id_to_index = _id_to_index(tables)
    found: List[Automorphism] = []
    for perm in permutations(range(n)):
        if perm == identity:
            continue
        for value_action in ("relabel", "fixed"):
            auto = _validate(
                perm,
                value_action,
                search,
                tables,
                constraint_allowed,
                id_to_index=id_to_index,
            )
            if auto is not None:
                found.append(auto)
                break
    return tuple(found)


def _translate_group(
    base_group: Tuple[Automorphism, ...],
    search: MapSearch,
    tables: InternTable,
) -> Tuple[Automorphism, ...]:
    """Re-express a verified group against a different interning.

    The expensive constraint-preservation check is a property of the
    abstract ``(perm, value_action)`` action — it holds in any encoding
    of the same CSP once it held in one — so translation only rebuilds
    ``var_perm``/``val_maps`` (which do depend on the vertex order and
    the output-id assignment).
    """
    id_to_index = _id_to_index(tables)
    translated = []
    for auto in base_group:
        moved = _validate(
            auto.perm,
            auto.value_action,
            search,
            tables,
            {},
            id_to_index=id_to_index,
            check_constraints=False,
        )
        if moved is not None:
            translated.append(moved)
    return tuple(translated)


def automorphism_group(
    search: MapSearch, tables: InternTable
) -> Tuple[Automorphism, ...]:
    """The (cached) verified automorphisms of one interned problem.

    Cached on the :class:`InternTable`, so it shares the lifetime of
    the per-(affine, task) setup the kernels already reuse — overridden
    (sliced) domains build fresh tables and therefore recompute the
    group against the *restricted* domains, which is what keeps slicing
    sound (a slice that breaks a symmetry simply loses it).
    """
    group = getattr(tables, "_symmetry_group", None)
    if group is None:
        with obs.span(
            "solver.symmetry.group", n=search.affine.n
        ) as group_span:
            group = compute_automorphisms(search, tables)
            group_span.set_attr("order", len(group) + 1)
        tables._symmetry_group = group
    return group


# ----------------------------------------------------------------------
# Orbit-blocked vertex order
# ----------------------------------------------------------------------
class _OrbitOrderedSearch(MapSearch):
    """``MapSearch`` whose order places verified-group orbits contiguously.

    The constrained-first order scatters each vertex orbit across
    positions, so no non-trivial automorphism maps a prefix of it onto
    itself and orbit pruning never fires.  This subclass keeps the
    constrained-first greedy as-is but places a vertex's whole orbit
    (under the *verified* group, passed in as a vertex partition) the
    moment its first member is picked: prefixes become unions of
    complete orbits plus at most one partial orbit — exactly the sets
    an automorphism can setwise stabilize.  Each orbit member is chosen
    by the same adjacency-to-placed key as the base greedy, which keeps
    constraint firing — and with it tree quality — close to legacy's.

    Its structure is built privately: the greedy base order is derived
    afresh, and the orbit order never lands in the affine task's shared
    :class:`~repro.tasks.solvability.SearchStructure`.
    """

    def __init__(
        self,
        affine: AffineTask,
        task: Task,
        domain_overrides: Optional[DomainOverrides] = None,
        orbits: Optional[Dict[ChrVertex, frozenset]] = None,
    ):
        self._orbit_of = orbits or {}
        super().__init__(affine, task, domain_overrides=domain_overrides)

    def _structure(self, affine: AffineTask) -> SearchStructure:
        self.structure_status = "built"
        return SearchStructure(affine.complex, reorder=self._orbit_order)

    def _orbit_order(self, base, keyed, adjacency, sizes):
        if not self._orbit_of:
            return base
        key_id = {vertex: index for index, vertex in enumerate(keyed)}
        rank = {vertex_id: index for index, vertex_id in enumerate(base)}
        neighbours = [set(adjacent) for adjacent in adjacency]

        def greedy_key(v):
            return (-len(neighbours[v] & placed), sizes[v], rank[v])

        ordered: List[int] = []
        placed: set = set()
        remaining = set(base)
        while remaining:
            best = min(remaining, key=greedy_key)
            orbit = self._orbit_of.get(keyed[best])
            pending = (
                {key_id[member] for member in orbit} & remaining
                if orbit
                else set()
            )
            pending.add(best)
            while pending:
                member = min(pending, key=greedy_key)
                ordered.append(member)
                placed.add(member)
                remaining.remove(member)
                pending.remove(member)
        return ordered


def _vertex_orbits(
    search: MapSearch, group: Tuple[Automorphism, ...]
) -> Dict[ChrVertex, frozenset]:
    """Partition the vertices into orbits under the verified group.

    Connectivity under the *undirected* edges of each element's
    ``var_perm`` — sound without composition closure for the same
    reason as :func:`_orbit_representatives`.
    """
    vertices = search.vertices
    total = len(vertices)
    neighbors: List[set] = [set() for _ in range(total)]
    for auto in group:
        for i, j in enumerate(auto.var_perm):
            if i != j:
                neighbors[i].add(j)
                neighbors[j].add(i)
    orbit_of: Dict[ChrVertex, frozenset] = {}
    seen = [False] * total
    for start in range(total):
        if seen[start]:
            continue
        component = {start}
        seen[start] = True
        stack = [start]
        while stack:
            current = stack.pop()
            for target in neighbors[current]:
                if not seen[target]:
                    seen[target] = True
                    component.add(target)
                    stack.append(target)
        block = frozenset(vertices[i] for i in component)
        for member in block:
            orbit_of[member] = block
    return orbit_of


def _build_setup(
    affine: AffineTask,
    task: Task,
    domain_overrides: Optional[DomainOverrides] = None,
):
    """Compose the symmetry kernel's (search, tables) pair.

    Two-pass: verify the group against the plain constrained-first
    setup first (orbits don't depend on the vertex order), then — only
    when symmetry actually exists — rebuild the search with that
    group's orbits placed contiguously.  A trivial group reuses the
    plain setup unchanged, so the kernel degenerates to an exact
    bitset search with zero reordering risk.
    """
    if domain_overrides:
        base_search = MapSearch(
            affine, task, domain_overrides=domain_overrides
        )
        base_tables = InternTable(base_search)
    else:
        base_search, base_tables = _shared_setup(affine, task)
    base_group = automorphism_group(base_search, base_tables)
    if not base_group:
        return base_search, base_tables
    orbits = _vertex_orbits(base_search, base_group)
    search = _OrbitOrderedSearch(
        affine, task, domain_overrides=domain_overrides, orbits=orbits
    )
    tables = InternTable(search)
    # Seed the ordered tables' group cache by translation: re-running
    # the S_n enumeration (and its constraint check) against the new
    # encoding would double the setup cost for an identical answer.
    tables._symmetry_group = _translate_group(base_group, search, tables)
    return search, tables


def _symmetry_setup(affine: AffineTask, task: Task):
    """The orbit-ordered interned problem, cached beside the shared one.

    Mirrors :func:`~repro.solver.kernel._shared_setup` but caches under
    a kernel-specific key in the same ``task._solver_setup`` dict, so
    it shares the task-lifetime semantics without colliding with the
    bitset/fc setup (their keys are bare ``AffineTask`` objects).
    """
    cache = getattr(task, "_solver_setup", None)
    if cache is None:
        cache = {}
        task._solver_setup = cache
    key = (affine, _SETUP_KEY)
    entry = cache.get(key)
    if entry is None:
        with obs.span(
            "solver.setup", shared=True, kernel="symmetry"
        ) as setup_span:
            entry = _build_setup(affine, task)
            setup_span.set_attr("vertices", len(entry[0].vertices))
        cache[key] = entry
    return entry


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------
def _orbit_representatives(
    stabilizer: Tuple[Automorphism, ...], depth: int, size: int
) -> int:
    """Bitmask of minimal-index orbit representatives at ``depth``.

    Orbits are connected components of the *undirected* graph with an
    edge ``j — a.val_maps[depth][j]`` per live automorphism: equivalence
    of subtrees transfers along each edge in both directions (the
    action is a bijection), so the closure is sound even though the
    live set need not be composition-closed.
    """
    neighbors: List[List[int]] = [[] for _ in range(size)]
    for auto in stabilizer:
        val_map = auto.val_maps[depth]
        for j in range(size):
            target = val_map[j]
            if target != j:
                neighbors[j].append(target)
                neighbors[target].append(j)
    reps = 0
    seen = [False] * size
    for j in range(size):
        if seen[j]:
            continue
        reps |= 1 << j
        stack = [j]
        seen[j] = True
        while stack:
            current = stack.pop()
            for target in neighbors[current]:
                if not seen[target]:
                    seen[target] = True
                    stack.append(target)
    return reps


class SymmetryKernel(BitsetKernel):
    """Bitset DFS quotiented by orbit representatives (``kernel="symmetry"``).

    Subclasses :class:`BitsetKernel` for the ``_arrival_mask``
    constraint filter, but searches its *own* orbit-blocked vertex
    order (see :class:`_OrbitOrderedSearch`) with its own setup cache;
    the DFS loop adds orbit pruning and drops resume support.
    """

    kernel = "symmetry"

    def __init__(
        self,
        affine: AffineTask,
        task: Task,
        domain_overrides: Optional[DomainOverrides] = None,
    ):
        if domain_overrides:
            with obs.span(
                "solver.setup", overridden=True, kernel="symmetry"
            ) as setup_span:
                self._search, self.tables = _build_setup(
                    affine, task, domain_overrides=domain_overrides
                )
                setup_span.set_attr("vertices", len(self._search.vertices))
        else:
            self._search, self.tables = _symmetry_setup(affine, task)
        self.nodes_explored = 0
        self.group = automorphism_group(self._search, self.tables)
        #: Per depth, the automorphisms fixing that position as a
        #: variable — the static half of the liveness condition.
        self._fixers: List[Tuple[Automorphism, ...]] = [
            tuple(
                a
                for a in self.group
                if a.var_perm[d] == d
            )
            for d in range(len(self._search.vertices))
        ]
        #: ``(depth, live set) -> representative mask`` — the same live
        #: set recurs at a depth across sibling subtrees.
        self._orbit_memo: Dict[tuple, int] = {}

    def search(
        self,
        budget: Optional[int] = None,
        resume_from: Optional[Dict[ChrVertex, OutputVertex]] = None,
    ) -> Optional[Dict[ChrVertex, OutputVertex]]:
        if resume_from:
            raise ValueError(
                "the symmetry kernel explores a quotiented tree and cannot "
                "honor resume_from; use the bitset or legacy kernel to resume"
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

        choice = [0] * total
        chosen_bit = [0] * total
        chosen_idx = [0] * total
        ok_mask = [0] * total
        ok_valid = [False] * total
        fixers = self._fixers

        depth = 0
        while True:
            if not ok_valid[depth]:
                ok = self._arrival_mask(depth, chosen_bit)
                if ok and fixers[depth]:
                    live = tuple(
                        a
                        for a in fixers[depth]
                        if self._stabilizes_prefix(a, depth, chosen_idx)
                    )
                    if live:
                        key = (depth, live)
                        reps = self._orbit_memo.get(key)
                        if reps is None:
                            reps = _orbit_representatives(
                                live, depth, len(domain_bits[depth])
                            )
                            self._orbit_memo[key] = reps
                        ok &= reps
                ok_mask[depth] = ok
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

    @staticmethod
    def _stabilizes_prefix(
        auto: Automorphism, depth: int, chosen_idx: List[int]
    ) -> bool:
        """Does ``auto`` map the assigned prefix onto itself?

        The prefix occupies exactly positions ``0..depth-1``, so the
        action preserves it as a set of ``(position, value)`` pairs iff
        every assigned position lands on an assigned position carrying
        the image value.  (``var_perm`` is a permutation, so "all images
        below ``depth``" already forces a bijection of the prefix.)
        """
        var_perm = auto.var_perm
        val_maps = auto.val_maps
        for i in range(depth):
            j = var_perm[i]
            if j >= depth or chosen_idx[j] != val_maps[i][chosen_idx[i]]:
                return False
        return True

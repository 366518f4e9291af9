"""Tests for the FACT decision procedure (repro.tasks.solvability)."""

import random

import pytest

from repro.adversaries.agreement import agreement_function_of
from repro.adversaries.fairness import is_fair
from repro.analysis.landscape import all_adversaries
from repro.core import full_affine_task, r_affine
from repro.core.affine import AffineTask
from repro.solver import BitsetKernel
from repro.tasks.set_consensus import set_consensus_task
from repro.tasks.simplex_agreement import affine_task_as_task
from repro.tasks.solvability import (
    MapSearch,
    SearchBudgetExceeded,
    find_carried_map,
    minimal_set_consensus,
    search_structure,
    solves_set_consensus,
    split_search_domains,
    verify_carried_map,
)
from repro.topology import chr_complex
from repro.topology.chromatic import ChromaticComplex, color_of
from repro.topology.simplex import simplex_key, vertex_key
from repro.topology.subdivision import carrier_in_s


def test_n_set_consensus_always_solvable(chr1):
    task = full_affine_task(3, 1)
    assert solves_set_consensus(task, 3)


def test_wait_free_consensus_unsolvable():
    task = full_affine_task(3, 1)
    assert not solves_set_consensus(task, 1)


def test_wait_free_two_set_consensus_unsolvable_depth1():
    """Sperner at depth 1: no 2-set-consensus map out of Chr s."""
    task = full_affine_task(3, 1)
    assert not solves_set_consensus(task, 2)


def test_two_processes_consensus_unsolvable_even_at_depth2():
    task = full_affine_task(2, 2)
    assert not solves_set_consensus(task, 1)


def test_r1of_solves_consensus(ra_1of):
    assert solves_set_consensus(ra_1of, 1)


def test_minimal_set_consensus_matches_alpha(ra_1of, ra_2of, ra_1res, ra_fig5b):
    assert minimal_set_consensus(ra_1of) == 1
    assert minimal_set_consensus(ra_2of) == 2
    assert minimal_set_consensus(ra_1res) == 2
    assert minimal_set_consensus(ra_fig5b) == 2


def test_found_map_verifies(ra_1res):
    task = set_consensus_task(3, 2)
    mapping = find_carried_map(ra_1res, task)
    assert mapping is not None
    assert verify_carried_map(ra_1res, task, mapping)


def test_found_map_is_chromatic(ra_1of):
    task = set_consensus_task(3, 1)
    mapping = find_carried_map(ra_1of, task)
    for vertex, out in mapping.items():
        assert vertex.color == out.process


def test_verify_rejects_corrupted_map(ra_1res):
    from repro.tasks.task import OutputVertex

    task = set_consensus_task(3, 2)
    mapping = find_carried_map(ra_1res, task)
    vertex = next(iter(mapping))
    corrupted = dict(mapping)
    corrupted[vertex] = OutputVertex(
        (vertex.color + 1) % 3, corrupted[vertex].value
    )
    assert not verify_carried_map(ra_1res, task, corrupted)


def test_budget_exceeded_raises():
    task = full_affine_task(3, 1)
    search = MapSearch(task, set_consensus_task(3, 2))
    with pytest.raises(SearchBudgetExceeded):
        search.search(budget=3)


def test_nodes_explored_counted(ra_1of):
    search = MapSearch(ra_1of, set_consensus_task(3, 1))
    assert search.search() is not None
    assert search.nodes_explored > 0


def test_mismatched_n_rejected(ra_1of):
    with pytest.raises(ValueError):
        MapSearch(ra_1of, set_consensus_task(4, 1))


def test_affine_task_solves_itself(ra_1of):
    """Simplex agreement on L is solvable from L — in particular the
    identity assignment is a carried map."""
    from repro.tasks.task import OutputVertex

    task = affine_task_as_task(ra_1of)
    mapping = find_carried_map(ra_1of, task)
    assert mapping is not None
    assert verify_carried_map(ra_1of, task, mapping)
    identity = {
        v: OutputVertex(v.color, v) for v in ra_1of.complex.vertices
    }
    assert verify_carried_map(ra_1of, task, identity)


def test_solvability_monotone_in_subcomplex(ra_2of):
    """A sub-complex of R_{2-OF} solving 2-set consensus implies the
    bigger complex cannot get *harder*... checked via the instance:
    both R_A(2-OF) and R_{2-OF} solve exactly k=2."""
    from repro.core.rkof import r_k_obstruction_free

    rk = r_k_obstruction_free(3, 2)
    assert minimal_set_consensus(rk) == 2
    assert minimal_set_consensus(ra_2of) == 2


# ----------------------------------------------------------------------
# The shared search structure against the quadratic construction
# ----------------------------------------------------------------------
def _quadratic_structure(affine):
    """The set-up ``MapSearch`` used before the shared structure:
    simplices sorted by nested keys, one ``carrier_in_s`` per simplex,
    and a greedy order that rescans every remaining vertex per step.
    Kept as the oracle the structure must reproduce exactly."""
    simplices = sorted(affine.complex.simplices, key=simplex_key)
    participation = {sigma: carrier_in_s(sigma) for sigma in simplices}
    remaining = set(affine.complex.vertices)
    adjacency = {v: set() for v in remaining}
    for sigma in simplices:
        if len(sigma) == 2:
            a, b = tuple(sigma)
            adjacency[a].add(b)
            adjacency[b].add(a)
    order, placed = [], set()
    while remaining:
        best = min(
            remaining,
            key=lambda v: (
                -len(adjacency[v] & placed),
                len(participation[frozenset([v])]),
                vertex_key(v),
            ),
        )
        order.append(best)
        placed.add(best)
        remaining.remove(best)
    rank = {v: i for i, v in enumerate(order)}
    firing = {v: [] for v in order}
    for sigma in simplices:
        firing[max(sigma, key=rank.__getitem__)].append(sigma)
    return simplices, participation, order, firing


def _quadratic_domains(structure, task):
    _, participation, order, _ = structure
    domains = {}
    for vertex in order:
        allowed = task.allowed_outputs(participation[frozenset([vertex])])
        candidates = sorted(
            {
                out
                for sigma in allowed
                for out in sigma
                if out.process == color_of(vertex)
            },
            key=vertex_key,
        )
        domains[vertex] = [o for o in candidates if frozenset([o]) in allowed]
    return domains


def _quadratic_search(structure, domains, task, budget):
    """The reference backtrack over the oracle's set-up: the returned
    map (or ``None``) and its node count, or the budget's node count."""
    _, participation, order, firing = structure
    assignment, nodes = {}, 0
    choice = [0] * len(order)
    depth = 0
    while True:
        vertex = order[depth]
        advanced = False
        while choice[depth] < len(domains[vertex]):
            candidate = domains[vertex][choice[depth]]
            choice[depth] += 1
            nodes += 1
            if nodes > budget:
                return "budget", nodes, None
            assignment[vertex] = candidate
            if all(
                frozenset(assignment[v] for v in sigma)
                in task.allowed_outputs(participation[sigma])
                for sigma in firing[vertex]
            ):
                advanced = True
                break
            del assignment[vertex]
        if advanced:
            if depth + 1 == len(order):
                return "map", nodes, dict(assignment)
            depth += 1
            choice[depth] = 0
        else:
            assignment.pop(vertex, None)
            depth -= 1
            if depth < 0:
                return "none", nodes, None
            assignment.pop(order[depth], None)


def _structure_view(search):
    """The shared structure in the oracle's (object-keyed) shape."""
    st = search.structure
    simplices = [
        frozenset(st.vertices[p] for p in positions)
        for positions in st.simplices
    ]
    participation = dict(zip(simplices, st.participation))
    firing = {
        vertex: [simplices[i] for i in st.firing[position]]
        for position, vertex in enumerate(st.vertices)
    }
    return simplices, participation, list(st.vertices), firing


def _outcome(search, budget):
    try:
        mapping = search.search(budget)
    except SearchBudgetExceeded as exc:
        return "budget", exc.nodes_explored, None
    return ("none" if mapping is None else "map"), search.nodes_explored, mapping


def _random_subcomplex(seed):
    """A random pure sub-complex of ``Chr² s`` (n=3) as an affine task."""
    rng = random.Random(seed)
    keep = rng.uniform(0.3, 0.95)
    facets = sorted(chr_complex(3, 2).facets, key=simplex_key)
    kept = [facet for facet in facets if rng.random() < keep] or facets[:1]
    return AffineTask(3, 2, ChromaticComplex(kept), name=f"rand{seed}")


@pytest.mark.parametrize("seed", range(6))
def test_structure_matches_quadratic_construction(seed):
    affine = _random_subcomplex(seed)
    oracle = _quadratic_structure(affine)
    structures = set()
    for k in (1, 2, 3):
        task = set_consensus_task(3, k)
        search = MapSearch(affine, task)
        assert _structure_view(search) == oracle
        assert search.domains == _quadratic_domains(oracle, task)
        structures.add(id(search.structure))
        expected = _quadratic_search(
            oracle, _quadratic_domains(oracle, task), task, 5000
        )
        assert _outcome(search, 5000) == expected
        assert _outcome(BitsetKernel(affine, task), 5000) == expected
    # One structure per affine object, whatever the task.
    assert structures == {id(search_structure(affine))}


def test_e11_table_matches_quadratic_oracle():
    """Every E11 statement (43 fair n=3 adversaries x k) searches the
    same tree as the quadratic construction: node counts and maps."""
    budget = 20000
    statements = 0
    for adversary in all_adversaries(3):
        if not is_fair(adversary):
            continue
        affine = r_affine(agreement_function_of(adversary))
        oracle = _quadratic_structure(affine)
        for k in (1, 2, 3):
            task = set_consensus_task(3, k)
            expected = _quadratic_search(
                oracle, _quadratic_domains(oracle, task), task, budget
            )
            assert _outcome(MapSearch(affine, task), budget) == expected
            statements += 1
    assert statements == 129


def test_split_slices_share_the_structure():
    affine = full_affine_task(3, 1)
    task = set_consensus_task(3, 2)
    shared = search_structure(affine)
    for overrides in split_search_domains(affine, task, parts=2):
        slice_search = MapSearch(affine, task, domain_overrides=overrides)
        assert slice_search.structure is shared
        assert slice_search.structure_status == "reused"


def test_structure_status_reports_the_first_build():
    affine = full_affine_task(3, 1)
    first = MapSearch(affine, set_consensus_task(3, 1))
    second = MapSearch(affine, set_consensus_task(3, 2))
    assert (first.structure_status, second.structure_status) == (
        "built",
        "reused",
    )
    # An equal affine object builds its own.
    fresh = MapSearch(full_affine_task(3, 1), set_consensus_task(3, 1))
    assert fresh.structure_status == "built"

"""Tests for general tasks with input complexes (E17)."""

import pytest

from repro.adversaries import k_concurrency_alpha
from repro.core import full_affine_task, r_affine, r_t_resilient
from repro.tasks.general_task import (
    GeneralMapSearch,
    InputVertex,
    base_inputs,
    base_inputs_of_simplex,
    binary_consensus_task,
    binary_input_complex,
    binary_k_set_consensus_task,
    general_task_solvable,
    input_complex_from_assignments,
    subdivide_input_complex,
)
from repro.tasks.solvability import SearchBudgetExceeded


def test_binary_input_complex_shape():
    inputs = binary_input_complex(3)
    assert len(inputs.facets) == 8
    assert len(inputs.vertices) == 6
    assert inputs.is_pure(2)


def test_input_complex_from_menus():
    inputs = input_complex_from_assignments(
        2, {0: ["a"], 1: ["x", "y", "z"]}
    )
    assert len(inputs.facets) == 3


def test_input_vertex_color():
    from repro.topology.chromatic import color_of

    assert color_of(InputVertex(2, 0)) == 2


#: (model, task) -> node count of the E17 separation table's searches,
#: as recorded before the shared solver structure and the bucketed
#: maximality filter landed (the filter builds the complexes searched).
_E17_NODES = {
    ("wf1", "consensus"): 23,
    ("wf1", "2-set"): 54,
    ("1of", "consensus"): 720,
    ("1of", "2-set"): 582,
    ("1res", "consensus"): 683,
    ("1res", "2-set"): 672,
}


def test_subdivided_input_complex_glues():
    """Two input facets sharing a face share the subdivision of that
    face: vertices carried entirely by the shared inputs coincide."""
    affine = full_affine_task(2, 1)
    inputs = binary_input_complex(2)
    domain = subdivide_input_complex(affine, inputs)
    # 4 input facets x 3 Chr-edge facets.
    assert len(domain.facets) == 12
    # Corner vertices (carried by one input vertex) are shared between
    # the two input facets containing that input vertex, so there are
    # exactly 4 of them, not 8.
    corners = [
        v for v in domain.vertices if len(base_inputs(v)) == 1
    ]
    assert len(corners) == 4


def test_base_inputs_of_simplex():
    affine = full_affine_task(2, 1)
    inputs = binary_input_complex(2)
    domain = subdivide_input_complex(affine, inputs)
    for facet in domain.facets:
        witnessed = base_inputs_of_simplex(facet)
        assert len({v.process for v in witnessed}) == 2


def test_flp_binary_consensus_unsolvable_wait_free():
    """FLP at depth 1, decided by exhaustive search."""
    task = binary_consensus_task(3)
    assert not general_task_solvable(full_affine_task(3, 1), task)


def test_flp_two_processes_depth2():
    task = binary_consensus_task(2)
    assert not general_task_solvable(full_affine_task(2, 2), task)


def test_binary_consensus_solvable_one_obstruction_free():
    task = binary_consensus_task(3)
    affine = r_affine(k_concurrency_alpha(3, 1))
    assert general_task_solvable(affine, task)


def test_binary_consensus_unsolvable_one_resilient():
    task = binary_consensus_task(3)
    search = GeneralMapSearch(r_t_resilient(3, 1), task)
    assert search.search() is None
    assert search.nodes_explored == _E17_NODES[("1res", "consensus")]


def test_binary_2set_consensus_solvable_one_resilient():
    task = binary_k_set_consensus_task(3, 2)
    search = GeneralMapSearch(r_t_resilient(3, 1), task)
    assert search.search() is not None
    assert search.nodes_explored == _E17_NODES[("1res", "2-set")]


def test_found_map_respects_validity():
    task = binary_consensus_task(3)
    affine = r_affine(k_concurrency_alpha(3, 1))
    search = GeneralMapSearch(affine, task)
    mapping = search.search()
    assert mapping is not None
    assert search.nodes_explored == _E17_NODES[("1of", "consensus")]
    for vertex, out in mapping.items():
        assert out.process == vertex.color
        witnessed_values = {v.value for v in base_inputs(vertex)}
        assert out.value in witnessed_values


def test_budget_exceeded():
    task = binary_consensus_task(3)
    search = GeneralMapSearch(full_affine_task(3, 1), task)
    with pytest.raises(SearchBudgetExceeded):
        search.search(budget=2)


def test_binary_3set_consensus_trivially_solvable():
    task = binary_k_set_consensus_task(3, 3)
    assert general_task_solvable(full_affine_task(3, 1), task)


def test_e17_remaining_trees_unchanged():
    """The E17 cells no other test here searches: verdict and nodes."""
    cells = [
        (full_affine_task(3, 1), binary_consensus_task(3), "wf1", "consensus", False),
        (full_affine_task(3, 1), binary_k_set_consensus_task(3, 2), "wf1", "2-set", True),
        (
            r_affine(k_concurrency_alpha(3, 1)),
            binary_k_set_consensus_task(3, 2),
            "1of",
            "2-set",
            True,
        ),
    ]
    for affine, task, model, name, solvable in cells:
        search = GeneralMapSearch(affine, task)
        assert (search.search() is not None) == solvable
        assert search.nodes_explored == _E17_NODES[(model, name)]

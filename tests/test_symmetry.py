"""Tests for ``repro.solver.symmetry`` — the orbit-quotiented kernel.

The load-bearing guarantees:

* every automorphism the kernel prunes by is **verified** against the
  interned constraint problem, so the quotient is sound by
  construction: verdicts and returned maps must match the ``bitset``
  kernel on every instance, symmetric or not — fuzzed over randomly
  thinned tasks (node counts are deliberately *not* compared: the
  symmetry kernel explores its own orbit-blocked tree);
* found maps are concrete (de-quotienting is the identity), so they
  pass the independent map verifier and back certificates the
  unchanged stdlib checker accepts;
* on a symmetric instance the quotient actually prunes (strictly
  fewer nodes than bitset on the wait-free instance);
* a trivial automorphism group degenerates to the exact bitset tree;
* resume is refused, and resume-carrying requests silently coerce to
  a tree-identical kernel (same contract as ``fc``).
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.certify import cert_to_bytes, certificate_for
from repro.certify.checker import check
from repro.certify.witness import solvable_cert
from repro.core import full_affine_task
from repro.solver import (
    KERNEL_SYMMETRY,
    BitsetKernel,
    SolveRequest,
    SolveResult,
    SymmetryKernel,
    make_searcher,
    run_request,
)
from repro.tasks.set_consensus import set_consensus_task
from repro.tasks.solvability import (
    MapSearch,
    SearchBudgetExceeded,
    SearchStructure,
    search_structure,
    verify_carried_map,
)
from repro.tasks.task import Task
from repro.topology.simplex import vertex_key


@pytest.fixture(scope="session")
def wf_affine():
    """The wait-free one-round task ``Chr s`` (3 processes)."""
    return full_affine_task(3, 1)


def _thinned_task(base: Task, seed: int) -> Task:
    """A random sub-task: ``Delta`` with some output simplices dropped."""
    rng = random.Random(seed)
    table = {}
    for size in range(1, base.n + 1):
        for combo in combinations(range(base.n), size):
            participants = frozenset(combo)
            outputs = sorted(
                base.allowed_outputs(participants),
                key=lambda sigma: sorted(
                    (v.process, repr(v.value)) for v in sigma
                ),
            )
            kept = [sigma for sigma in outputs if rng.random() < 0.8]
            table[participants] = frozenset(kept or outputs)
    return Task(
        base.n,
        base.input_complex,
        base.output_complex,
        lambda participants: table[frozenset(participants)],
        name=f"{base.name}-thinned-{seed}",
    )


# ------------------------------------------------------------- the group
def test_wait_free_group_is_nontrivial_and_verified(wf_affine):
    kernel = SymmetryKernel(wf_affine, set_consensus_task(3, 2))
    # Fully symmetric task + fully symmetric adversary: every non-trivial
    # process permutation survives verification (|S_3| - 1 = 5).
    assert len(kernel.group) == 5
    total = len(kernel._search.vertices)
    for auto in kernel.group:
        # var_perm is a verified permutation of assignment positions.
        assert sorted(auto.var_perm) == list(range(total))
        assert len(auto.val_maps) == total


# ------------------------------------------------------- differential parity
def test_symmetry_matches_bitset_on_known_instances(
    wf_affine, ra_1res, ra_1of
):
    for affine, k in (
        (wf_affine, 2),
        (wf_affine, 3),
        (ra_1res, 1),
        (ra_1res, 2),
        (ra_1of, 1),
    ):
        task = set_consensus_task(3, k)
        expected = BitsetKernel(affine, task).search()
        found = SymmetryKernel(affine, task).search()
        assert (found is not None) == (expected is not None), (
            affine.name,
            k,
        )
        if found is not None:
            # The witness may differ from bitset's (different tree),
            # but it must be a genuine carried map.
            assert verify_carried_map(affine, task, found), (affine.name, k)


def test_symmetry_prunes_on_symmetric_instance(wf_affine):
    task = set_consensus_task(3, 2)
    bitset = BitsetKernel(wf_affine, task)
    symmetry = SymmetryKernel(wf_affine, task)
    assert bitset.search() is None and symmetry.search() is None
    assert 0 < symmetry.nodes_explored < bitset.nodes_explored


def test_differential_fuzz_thinned_tasks(wf_affine):
    """Random thinning usually breaks the symmetry — the kernel must
    stay correct either way, and a trivial group must degenerate to the
    exact bitset tree."""
    base = set_consensus_task(3, 3)
    verdicts = set()
    trivial_groups = 0
    for seed in range(10):
        task = _thinned_task(base, seed)
        bitset = BitsetKernel(wf_affine, task)
        expected = bitset.search()
        verdicts.add(expected is not None)

        symmetry = SymmetryKernel(wf_affine, task)
        found = symmetry.search()
        assert (found is not None) == (expected is not None), seed
        if found is not None:
            assert verify_carried_map(wf_affine, task, found), seed
        if not symmetry.group:
            trivial_groups += 1
            # No verified automorphisms: same order, same tree, same
            # node count as bitset — bit-identical degeneration.
            assert symmetry.nodes_explored == bitset.nodes_explored, seed
    assert verdicts == {True, False}
    assert trivial_groups > 0


# ------------------------------------------------------- budget and resume
def test_budget_raises_with_partial_assignment(wf_affine):
    task = set_consensus_task(3, 2)
    with pytest.raises(SearchBudgetExceeded) as info:
        SymmetryKernel(wf_affine, task).search(budget=5)
    assert info.value.nodes_explored > 5 - 2  # counted up to the stop
    assert isinstance(info.value.partial_assignment, dict)


def test_resume_refused_and_requests_coerce(ra_1res):
    task = set_consensus_task(3, 2)
    with pytest.raises(ValueError, match="cannot"):
        SymmetryKernel(ra_1res, task).search(
            resume_from={object(): object()}
        )
    with pytest.raises(SearchBudgetExceeded) as info:
        MapSearch(ra_1res, task).search(budget=20)
    request = SolveRequest(
        affine=ra_1res,
        task=task,
        resume=info.value.partial_assignment,
        kernel=KERNEL_SYMMETRY,
    )
    # Resume positions encode the legacy tree, so the request silently
    # runs on a tree-identical kernel (same contract as fc).
    assert isinstance(make_searcher(request), BitsetKernel)
    assert not isinstance(make_searcher(request), SymmetryKernel)
    assert run_request(request).mapping == MapSearch(ra_1res, task).search()


# ---------------------------------------------------------- typed requests
def test_run_request_symmetry(wf_affine, ra_1res):
    result = run_request(
        SolveRequest(
            affine=ra_1res,
            task=set_consensus_task(3, 2),
            kernel=KERNEL_SYMMETRY,
        )
    )
    assert isinstance(result, SolveResult)
    assert result.solvable and result.kernel == KERNEL_SYMMETRY
    assert verify_carried_map(
        ra_1res, set_consensus_task(3, 2), result.mapping
    )

    refuted = run_request(
        SolveRequest(
            affine=wf_affine,
            task=set_consensus_task(3, 2),
            kernel=KERNEL_SYMMETRY,
        )
    )
    assert not refuted.solvable and refuted.mapping is None


# ------------------------------------------------------------ certificates
def test_symmetry_found_map_roundtrips_through_the_checker(wf_affine):
    """A map found in the quotiented tree is already concrete: it backs
    a solvable certificate the independent checker accepts as-is."""
    task = set_consensus_task(3, 3)
    kernel = SymmetryKernel(wf_affine, task)
    mapping = kernel.search()
    assert mapping is not None
    assert verify_carried_map(wf_affine, task, mapping)
    cert = solvable_cert(
        wf_affine, task, mapping, nodes_explored=kernel.nodes_explored
    )
    report = check(cert)
    assert report.valid and report.verdict == "solvable"


def test_certificates_coerce_and_stay_byte_identical(wf_affine):
    """``certificate_for(kernel="symmetry")`` coerces to the default
    tree-identical kernel, so certificate bytes never depend on it."""
    task = set_consensus_task(3, 2)
    default = certificate_for(wf_affine, task)
    via_symmetry = certificate_for(wf_affine, task, kernel=KERNEL_SYMMETRY)
    assert cert_to_bytes(via_symmetry) == cert_to_bytes(default)


# ----------------------------------------------------------------------
# The orbit order and the shared search structure
# ----------------------------------------------------------------------
def _grid_affine(name):
    from repro.adversaries import (
        agreement_function_of,
        figure5b_adversary,
        k_concurrency_alpha,
        t_resilience_alpha,
    )
    from repro.core import r_affine

    if name == "wf1":
        return full_affine_task(3, 1)
    alpha = {
        "1of": lambda: k_concurrency_alpha(3, 1),
        "2of": lambda: k_concurrency_alpha(3, 2),
        "1res": lambda: t_resilience_alpha(3, 1),
        "fig5b": lambda: agreement_function_of(figure5b_adversary()),
    }[name]()
    return r_affine(alpha)


def _order_digest(vertices):
    import hashlib

    text = repr([vertex_key(v) for v in vertices]).encode()
    return hashlib.sha256(text).hexdigest()[:16]


#: (affine, k) -> (solvable, nodes, digest of the kernel's vertex
#: order), recorded from the quadratic set-up before the shared search
#: structure existed.  The 2-OF k=2 cell (425 413 nodes) is left out
#: for time.
_SYMMETRY_TREES = {
    ("wf1", 1): (False, 6, "ccd8f825ef65cf7e"),
    ("wf1", 2): (False, 246, "ccd8f825ef65cf7e"),
    ("wf1", 3): (True, 12, "ccd8f825ef65cf7e"),
    ("1of", 1): (True, 135, "34ceafb53c54de65"),
    ("1of", 2): (True, 89, "34ceafb53c54de65"),
    ("1of", 3): (True, 87, "34ceafb53c54de65"),
    ("2of", 1): (False, 150, "d732bc3a23dc74f3"),
    ("2of", 3): (True, 99, "d732bc3a23dc74f3"),
    ("1res", 1): (False, 6258, "c84109fba59d8af9"),
    ("1res", 2): (True, 96, "c84109fba59d8af9"),
    ("1res", 3): (True, 96, "c84109fba59d8af9"),
    ("fig5b", 1): (False, 230, "383f4f39d9c048c1"),
    ("fig5b", 2): (True, 97, "383f4f39d9c048c1"),
    ("fig5b", 3): (True, 97, "383f4f39d9c048c1"),
}


@pytest.mark.parametrize("name", ["wf1", "1of", "2of", "1res", "fig5b"])
def test_symmetry_trees_unchanged_by_the_shared_structure(name):
    affine = _grid_affine(name)
    for (row, k), expected in _SYMMETRY_TREES.items():
        if row != name:
            continue
        kernel = SymmetryKernel(affine, set_consensus_task(3, k))
        mapping = kernel.search()
        assert (
            mapping is not None,
            kernel.nodes_explored,
            _order_digest(kernel.vertices),
        ) == expected, (name, k)


def test_orbit_order_neither_reads_nor_writes_the_shared_structure():
    task = set_consensus_task(3, 2)
    # Symmetry first: the shared structure does not exist yet, and the
    # orbit order must not create it with its own order.
    affine = full_affine_task(3, 1)
    kernel = SymmetryKernel(affine, task)
    orbit_order = list(kernel.vertices)
    shared = search_structure(affine)
    assert kernel._search.structure is not shared
    plain = SearchStructure(affine.complex).vertices
    assert shared.vertices == plain
    assert orbit_order != plain  # the wait-free group is non-trivial
    # Shared first: the orbit order must not start from it.
    other = full_affine_task(3, 1)
    shared_first = search_structure(other)
    later = SymmetryKernel(other, set_consensus_task(3, 2))
    assert list(later.vertices) == orbit_order
    assert search_structure(other) is shared_first
    assert shared_first.vertices == plain

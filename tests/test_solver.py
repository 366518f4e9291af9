"""Tests for ``repro.solver`` — the typed solve surface and its kernel.

The load-bearing guarantees:

* the ``bitset`` kernel is **tree-identical** to the reference
  :class:`~repro.tasks.solvability.MapSearch` oracle: same verdicts,
  same returned maps *and the same node counts*, fuzzed over randomly
  thinned tasks (so certificates and budget stubs are interchangeable
  between the two);
* :class:`SolveRequest` normalization makes equal queries equal values
  with one cache digest, regardless of override insertion order;
* the deprecated positional payload tuples warn but keep working.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.certify import cert_to_bytes, certified_search, witness
from repro.core import full_affine_task
from repro.engine import Engine, JobSpec, digest, serialize
from repro.engine.serialize import deserialize
from repro.solver import (
    BitsetKernel,
    SolveRequest,
    SolveResult,
    as_solve_request,
    make_searcher,
    run_request,
    split_request,
)
from repro.tasks.approximate_agreement import approximate_agreement_task
from repro.tasks.set_consensus import set_consensus_task
from repro.tasks.simplex_agreement import chromatic_simplex_agreement
from repro.tasks.solvability import (
    MapSearch,
    SearchBudgetExceeded,
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


# ------------------------------------------------------- differential parity
def test_bitset_is_tree_identical_on_known_instances(
    wf_affine, ra_1res, ra_1of
):
    """Bitset matches the oracle node for node.

    The approximate-agreement and simplex-agreement cases have domains
    of 8 or more candidates, so one memo miss probes many candidates at
    once.
    """
    for affine, task in (
        (wf_affine, set_consensus_task(3, 2)),
        (wf_affine, set_consensus_task(3, 3)),
        (ra_1res, set_consensus_task(3, 1)),
        (ra_1res, set_consensus_task(3, 2)),
        (ra_1of, set_consensus_task(3, 1)),
        (full_affine_task(2, 1), approximate_agreement_task(2)),
        (full_affine_task(2, 2), approximate_agreement_task(2)),
        (ra_1of, chromatic_simplex_agreement(3, 1)),
    ):
        case = (affine.name, task.name)
        oracle = MapSearch(affine, task)
        expected = oracle.search()
        kernel = BitsetKernel(affine, task)
        assert kernel.search() == expected, case
        assert kernel.nodes_explored == oracle.nodes_explored, case


def test_intern_table_holds_one_table_per_participation(ra_1res):
    task = set_consensus_task(3, 2)
    kernel = BitsetKernel(ra_1res, task)
    tables = kernel.tables
    structure = tables.structure
    distinct = set(structure.participation)
    assert len(tables.allowed) == len(tables.memo) == len(distinct)
    assert len(tables.group) == len(structure.simplices) > len(distinct)
    owner = {}
    for group, participation in zip(tables.group, structure.participation):
        assert owner.setdefault(group, participation) == participation
    assert len(set(owner.values())) == len(owner)
    assert kernel.search() is not None


def test_differential_fuzz_thinned_tasks(wf_affine):
    """Seeded random sub-tasks: bitset tree-identical to the oracle."""
    base = set_consensus_task(3, 3)
    verdicts = set()
    for seed in range(8):
        task = _thinned_task(base, seed)
        oracle = MapSearch(wf_affine, task)
        expected = oracle.search()
        verdicts.add(expected is not None)

        bitset = BitsetKernel(wf_affine, task)
        assert bitset.search() == expected, seed
        assert bitset.nodes_explored == oracle.nodes_explored, seed
    # The seeds exercise both verdicts.
    assert verdicts == {True, False}


def test_budget_semantics_are_identical():
    # ``Chr^2 s`` for 2-set agreement: a refutation far past the
    # largest budget, so every budget fires mid-tree.
    affine = full_affine_task(3, 2)
    task = set_consensus_task(3, 2)
    for budget in (1, 7, 20, 100, 1000):
        oracle = MapSearch(affine, task)
        with pytest.raises(SearchBudgetExceeded) as legacy_info:
            oracle.search(budget=budget)
        kernel = BitsetKernel(affine, task)
        with pytest.raises(SearchBudgetExceeded) as bitset_info:
            kernel.search(budget=budget)
        assert str(bitset_info.value) == str(legacy_info.value)
        assert (
            bitset_info.value.nodes_explored
            == legacy_info.value.nodes_explored
            == budget + 1
        )


# ------------------------------------------------------------ the typed API
def test_run_request_returns_typed_result(ra_1res, wf_affine):
    request = SolveRequest(affine=ra_1res, task=set_consensus_task(3, 2))
    assert isinstance(make_searcher(request), BitsetKernel)
    solvable = run_request(request)
    assert isinstance(solvable, SolveResult)
    assert solvable.solvable and solvable.verdict == "solvable"
    assert solvable.as_pair() == (solvable.mapping, solvable.nodes)

    oracle = MapSearch(wf_affine, set_consensus_task(3, 2))
    assert oracle.search() is None
    refuted = run_request(
        SolveRequest(affine=wf_affine, task=set_consensus_task(3, 2))
    )
    assert not refuted.solvable and refuted.mapping is None
    assert refuted.nodes == oracle.nodes_explored


def test_request_normalization_is_order_independent(wf_affine):
    task = set_consensus_task(3, 2)
    search = MapSearch(wf_affine, task)
    a, b = search.vertices[0], search.vertices[1]
    overrides_ab = {a: tuple(search.domains[a]), b: tuple(search.domains[b])}
    overrides_ba = {b: tuple(search.domains[b]), a: tuple(search.domains[a])}
    first = SolveRequest(
        affine=wf_affine, task=task, domain_overrides=overrides_ab
    )
    second = SolveRequest(
        affine=wf_affine, task=task, domain_overrides=overrides_ba
    )
    assert first == second
    assert hash(first) == hash(second)
    assert digest(first) == digest(second)
    # Stored order is structural, never insertion order.
    keys = [vertex_key(v) for v, _ in first.domain_overrides]
    assert keys == sorted(keys)


def test_solvereq_serialize_roundtrip(ra_1res):
    task = set_consensus_task(3, 2)
    request = SolveRequest(affine=ra_1res, task=task, budget=123)
    text = serialize(request)
    rebuilt = deserialize(text)
    assert isinstance(rebuilt, SolveRequest)
    assert rebuilt.budget == 123
    # Tasks compare by tabulated Delta, not identity — byte equality of
    # the canonical form is the round-trip property.
    assert serialize(rebuilt) == text


# ------------------------------------------------------- deprecation shims
def test_legacy_tuple_payload_warns_and_works(ra_1res):
    task = set_consensus_task(3, 2)
    typed = JobSpec(
        "solve", (SolveRequest(affine=ra_1res, task=task),)
    ).run()
    with pytest.warns(DeprecationWarning, match="SolveRequest"):
        legacy = JobSpec("solve", (ra_1res, task, None, None)).run()
    assert legacy == typed
    with pytest.warns(DeprecationWarning, match="SolveRequest"):
        request = as_solve_request((ra_1res, task, None, None))
    assert request == SolveRequest(affine=ra_1res, task=task)
    # The service wire (protocol v1) passes tuples by design: no warning.
    assert as_solve_request((ra_1res, task, None, None), warn=False) == request


# ---------------------------------------------------------------- splitting
def test_split_request_slices_cover_and_stay_stable(ra_1res, wf_affine):
    task = set_consensus_task(3, 2)
    request = SolveRequest(affine=ra_1res, task=task)
    slices = split_request(request, parts=2)
    assert len(slices) == 2
    assert all(s.budget == request.budget for s in slices)
    # First slice (in canonical order) that solves returns the full map.
    expected = run_request(request).mapping
    for sub in slices:
        result = run_request(sub)
        if result.mapping is not None:
            assert result.mapping == expected
            break
    else:  # pragma: no cover - would mean the union lost solutions
        pytest.fail("no slice recovered the solvable verdict")

    # Unsolvable: every slice refutes its share.
    refuting = split_request(
        SolveRequest(affine=wf_affine, task=task), parts=2
    )
    assert refuting and all(
        run_request(sub).mapping is None for sub in refuting
    )
    # Slice identity is insertion-order independent (the platform fix):
    # the same split built twice yields identical digests.
    again = split_request(SolveRequest(affine=wf_affine, task=task), parts=2)
    assert [digest(s) for s in refuting] == [digest(s) for s in again]


# ------------------------------------------------------------------- engine
def test_engine_split_retry_still_resolves_with_bitset(wf_affine):
    """A starved budget resolves through split-retry on the new kernel."""
    task = set_consensus_task(3, 3)
    (mapping, nodes) = Engine(split_retries=6).solve_many(
        [(wf_affine, task, 3)]
    )[0]
    assert mapping == MapSearch(wf_affine, task).search()
    assert nodes > 0


# ------------------------------------------------ the n4-sampled budget cell
#: A fair n=4 adversary of the committed n4-sampled grid whose k=2 cell
#: the artifact records as ``budget`` (budget 20000, one split level).
_N4_BUDGET_LIVE_SETS = [
    [0, 1, 2, 3], [0, 1, 3], [0, 2], [0, 2, 3], [0, 3],
    [1, 2], [1, 2, 3], [1, 3], [2], [2, 3],
]


@pytest.mark.slow
def test_bitset_decides_the_n4_budget_cell_without_a_budget():
    """The cell is ``budget`` only because of the sweep's node cap:
    unbounded, the default kernel finds a carried map."""
    from repro.adversaries import Adversary, agreement_function_of
    from repro.core import r_affine
    from repro.tasks.solvability import verify_carried_map

    affine = r_affine(agreement_function_of(Adversary(4, _N4_BUDGET_LIVE_SETS)))
    task = set_consensus_task(4, 2)
    kernel = make_searcher(SolveRequest(affine=affine, task=task))
    mapping = kernel.search()
    assert mapping is not None
    assert kernel.nodes_explored == 102350
    assert verify_carried_map(affine, task, mapping)
    with pytest.raises(SearchBudgetExceeded):
        make_searcher(SolveRequest(affine=affine, task=task)).search(
            budget=20000
        )


# --------------------------------------------------------------- certificates
def _reference_cert(affine, task, budget):
    """The certificate ``certified_search`` reads out, taken from the
    reference ``MapSearch`` instead of the bitset kernel."""
    search = MapSearch(affine, task)
    try:
        mapping = search.search(budget)
    except SearchBudgetExceeded as exc:
        return witness.budget_stub(affine, task, exc, budget)
    if mapping is not None:
        return witness.solvable_cert(
            affine, task, mapping, nodes_explored=search.nodes_explored
        )
    return witness.unsolvable_cert(affine, task, search)


def test_certificates_are_byte_identical_across_kernels(ra_1res, wf_affine):
    for affine, budget in ((ra_1res, None), (wf_affine, None), (ra_1res, 20)):
        task = set_consensus_task(3, 2)
        _, bitset = certified_search(affine, task, budget=budget)
        reference = _reference_cert(affine, task, budget)
        assert cert_to_bytes(bitset) == cert_to_bytes(reference)


# ----------------------------------------------------------------- exports
def test_curated_exports_resolve():
    import repro.solver as solver_pkg
    import repro.tasks.solvability as solvability_module

    for module in (solver_pkg, solvability_module):
        assert module.__all__ == sorted(module.__all__), module.__name__
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)

"""Tests for the repro.sim runtime, fault plans, and hitting-set protocol."""

import json

import pytest

from repro.adversaries import from_live_sets
from repro.adversaries.catalogue import catalogue_by_name
from repro.protocols.commit_adopt import (
    check_commit_adopt_outputs,
    commit_adopt_protocol,
)
from repro.protocols.safe_agreement import propose_then_read
from repro.runtime.scheduler import ExecutionPlan, run_plan
from repro.sim import (
    FaultPlan,
    HittingSetConsensus,
    ReplayChooser,
    ReplayError,
    Runtime,
    ThresholdGuard,
    crash_plans_from_adversary,
    eager_chooser,
    events_from_trace,
    explore,
    isolate_chooser,
    random_chooser,
    trace_of,
)


# ----------------------------------------------------------------------
# Guards
# ----------------------------------------------------------------------
def test_threshold_guard_counts_distinct_senders():
    guard = ThresholdGuard((0, "echo"), 2)
    assert not guard.satisfied({})
    assert not guard.satisfied({(0, "echo"): {1: "a"}})
    assert guard.satisfied({(0, "echo"): {1: "a", 2: "b"}})


def test_threshold_guard_senders_filter():
    guard = ThresholdGuard((0, "prop"), 1, senders=frozenset({0, 1}))
    assert not guard.satisfied({(0, "prop"): {2: "x"}})
    assert guard.satisfied({(0, "prop"): {1: "x"}})


# ----------------------------------------------------------------------
# Runtime basics
# ----------------------------------------------------------------------
def _make_factories(n, process):
    return {pid: (lambda _pid, p=pid: process(p, n)) for pid in range(n)}


def _echo_process(pid, n):
    yield ("broadcast", 0, "val", pid)
    bag = yield ("await", ThresholdGuard((0, "val"), n))
    return sorted(bag[(0, "val")].values())


def test_fault_free_run_decides_everywhere():
    n = 3
    runtime = Runtime(n, _make_factories(n, _echo_process))
    run = runtime.run(eager_chooser())
    assert run.blocked == []
    assert run.crashed == []
    assert set(run.decisions) == {0, 1, 2}
    assert all(value == [0, 1, 2] for value in run.decisions.values())
    # n broadcasts to n receivers each.
    assert run.deliveries == n * n


def test_crash_allowance_yields_partial_broadcast():
    n = 3
    # Process 0 may send exactly one point-to-point message: its
    # broadcast reaches receiver 0 only (receivers in sorted order).
    runtime = Runtime(
        n,
        _make_factories(n, _echo_process),
        message_allowance={0: 1},
    )
    run = runtime.run(eager_chooser())
    assert run.crashed == [0]
    # Receivers 1 and 2 never see 0's value, so their n-threshold guard
    # can never be satisfied: they block (the deadlock detector fires).
    assert run.blocked == [1, 2]
    assert set(run.decisions) == set()


def test_allowance_zero_is_a_silent_crash():
    n = 3
    runtime = Runtime(
        n,
        _make_factories(n, _echo_process),
        message_allowance={2: 0},
    )
    run = runtime.run(eager_chooser())
    assert run.crashed == [2]
    assert run.blocked == [0, 1]


def test_input_quarantine_first_value_wins():
    # A process that broadcasts twice into one slot: the receiver keeps
    # the first value it was delivered, the second is inert.
    def process(pid, n):
        yield ("broadcast", 0, "x", "first")
        yield ("broadcast", 0, "x", "second")
        bag = yield ("await", ThresholdGuard((0, "x"), 1))
        return bag[(0, "x")][0]

    runtime = Runtime(1, {0: lambda _pid: process(0, 1)})
    run = runtime.run(eager_chooser())
    assert run.decisions[0] == "first"
    assert run.deliveries == 2


def test_omission_messages_are_droppable():
    n = 2

    def process(pid, n_procs):
        yield ("broadcast", 0, "val", pid)
        bag = yield ("await", ThresholdGuard((0, "val"), n_procs))
        return sorted(bag[(0, "val")].values())

    runtime = Runtime(
        n,
        _make_factories(n, process),
        omission=frozenset({1}),
    )
    # A chooser that drops whenever it can: process 1's messages all
    # vanish, so nobody (including 1 itself) assembles a full bag.
    def droppy(events):
        for index, event in enumerate(events):
            if event[0] == "drop":
                return index
        for index, event in enumerate(events):
            if event[0] == "deliver":
                return index
        return 0

    run = runtime.run(droppy)
    assert run.blocked == [0, 1]
    assert run.decisions == {}


def test_seed_determinism_byte_identical_traces():
    def run_once():
        n = 4
        runtime = Runtime(n, _make_factories(n, _echo_process))
        return runtime.run(random_chooser(42))

    first, second = run_once(), run_once()
    assert json.dumps(trace_of(first)) == json.dumps(trace_of(second))
    assert first.decisions == second.decisions


def test_different_seeds_reach_the_same_decisions():
    n = 3
    runs = []
    for seed in (1, 2, 3):
        runtime = Runtime(n, _make_factories(n, _echo_process))
        runs.append(runtime.run(random_chooser(seed)))
    assert all(run.decisions == runs[0].decisions for run in runs)


def test_replay_reproduces_a_run_exactly():
    n = 3
    runtime = Runtime(n, _make_factories(n, _echo_process))
    original = runtime.run(random_chooser(7))

    replayed = Runtime(n, _make_factories(n, _echo_process)).run(
        ReplayChooser(events_from_trace(trace_of(original)))
    )
    assert replayed.events == original.events
    assert replayed.decisions == original.decisions


def test_replay_rejects_a_tampered_trace():
    n = 3
    runtime = Runtime(n, _make_factories(n, _echo_process))
    original = runtime.run(random_chooser(7))
    trace = trace_of(original)
    trace[0] = ["deliver", 0, 99, "nope", 0]
    with pytest.raises(ReplayError):
        Runtime(n, _make_factories(n, _echo_process)).run(
            ReplayChooser(events_from_trace(trace))
        )


def test_isolate_chooser_feeds_quarantined_senders_first():
    # Two correct processes and one crash-faulty sender whose broadcast
    # reaches 0 and 1 before it crashes.  The isolate schedule runs the
    # faulty sender first, then feeds each correct process its own value
    # and the faulty one's: neither sees the other correct process.
    def process(pid, n):
        yield ("broadcast", 0, "x", pid)
        bag = yield ("await", ThresholdGuard((0, "x"), 2))
        return sorted(bag[(0, "x")])

    runtime = Runtime(
        3,
        _make_factories(3, process),
        message_allowance={2: 2},
    )
    run = runtime.run(isolate_chooser([2, 0, 1], frozenset({2})))
    assert run.crashed == [2]
    assert run.decisions == {0: [0, 2], 1: [1, 2]}


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
def test_fault_plan_json_round_trip():
    plan = FaultPlan(
        n=4,
        crashes=((3, 2),),
        omission=(1,),
        note="round-trip",
    )
    assert FaultPlan.from_json(plan.to_json()) == plan
    assert plan.faulty == {1, 3}
    assert plan.correct == {0, 2}


def test_crash_plans_cover_every_live_set():
    adversary = catalogue_by_name(3)["1-resilient"]
    plans = crash_plans_from_adversary(adversary, seed=0)
    live_sets = sorted(sorted(live) for live in adversary.live_sets)
    targeted = plans[: len(live_sets)]
    assert [sorted(plan.correct) for plan in targeted] == live_sets
    # Targeted plans crash the complement silently.
    for plan in targeted:
        assert all(allowance == 0 for _pid, allowance in plan.crashes)


# ----------------------------------------------------------------------
# Hitting-set consensus under explore()
# ----------------------------------------------------------------------
def test_hitting_set_consensus_solvable_case_passes():
    adversary = catalogue_by_name(3)["1-resilient"]
    protocol = HittingSetConsensus(adversary, 2)
    plans = crash_plans_from_adversary(adversary, seed=0)
    report = explore(protocol, plans, 3, seed=0)
    assert report["pass"], report["first_violation"]


def test_hitting_set_consensus_unsolvable_case_deadlocks():
    adversary = catalogue_by_name(3)["wait-free"]
    protocol = HittingSetConsensus(adversary, 1)
    plans = crash_plans_from_adversary(adversary, seed=0)
    report = explore(protocol, plans, 3, seed=0)
    assert not report["pass"]
    violations = report["first_violation"]["violations"]
    assert any("liveness" in line for line in violations)


# ----------------------------------------------------------------------
# Cross-check against the shared-memory runtime (repro.runtime)
# ----------------------------------------------------------------------
def _execution_plan_of(fault_plan, seed):
    """Map a sim FaultPlan onto the shared-memory ExecutionPlan model.

    Silent crashes (allowance 0) become non-participants; partial
    crashes and omission faults become participants that crash after a
    few steps.
    """
    allowances = fault_plan.allowances()
    silent = {pid for pid, allowance in allowances.items() if allowance == 0}
    participants = frozenset(range(fault_plan.n)) - silent
    faulty = frozenset(
        pid for pid in participants if pid in fault_plan.faulty
    )
    crash_after = {
        pid: max(1, allowances.get(pid, 2)) for pid in faulty
    }
    return ExecutionPlan(
        participants=participants,
        faulty=faulty,
        crash_after_steps=crash_after,
        seed=seed,
    )


def test_commit_adopt_holds_under_sim_crash_plans():
    adversary = catalogue_by_name(3)["1-resilient"]
    proposals = {0: "x", 1: "y", 2: "x"}
    for index, fault_plan in enumerate(
        crash_plans_from_adversary(adversary, seed=3)
    ):
        plan = _execution_plan_of(fault_plan, seed=index)
        result = run_plan(
            lambda pid, memory: commit_adopt_protocol(
                pid, 3, memory, proposals[pid]
            ),
            3,
            plan,
        )
        decided = {
            pid: result.outputs[pid]
            for pid in plan.participants - plan.faulty
            if pid in result.outputs
        }
        relevant = {pid: proposals[pid] for pid in plan.participants}
        check_commit_adopt_outputs(relevant, decided)


def test_safe_agreement_holds_under_sim_crash_plans():
    adversary = catalogue_by_name(3)["1-resilient"]
    proposals = {0: "x", 1: "y", 2: "z"}
    live_set_plans = [
        plan
        for plan in crash_plans_from_adversary(adversary, seed=3)
        if plan.note.startswith("live-set")
    ]
    assert live_set_plans
    for index, fault_plan in enumerate(live_set_plans):
        # Silent crashes never enter the unsafe window, so every
        # participant must decide one common proposed value.
        participants = sorted(fault_plan.correct)
        plan = ExecutionPlan(
            participants=frozenset(participants),
            faulty=frozenset(),
            seed=index,
        )
        result = run_plan(
            lambda pid, memory: propose_then_read(
                pid, 3, memory, proposals[pid]
            ),
            3,
            plan,
        )
        values = {result.outputs[pid] for pid in participants}
        assert len(values) == 1
        assert values <= {proposals[pid] for pid in participants}


def test_sim_and_shared_memory_agree_on_benign_patterns():
    """The same participation patterns that let the sim's hitting-set
    protocol terminate also let commit-adopt terminate — the two
    runtimes agree on which crash patterns are benign."""
    adversary = from_live_sets(3, [{0, 1}, {0, 2}, {0, 1, 2}])
    plans = crash_plans_from_adversary(adversary, seed=0)
    protocol = HittingSetConsensus(adversary, 1)
    report = explore(protocol, plans, 2, seed=0)
    assert report["pass"]
    proposals = {0: "a", 1: "b", 2: "c"}
    for index, fault_plan in enumerate(plans):
        plan = _execution_plan_of(fault_plan, seed=index)
        result = run_plan(
            lambda pid, memory: commit_adopt_protocol(
                pid, 3, memory, proposals[pid]
            ),
            3,
            plan,
        )
        for pid in plan.participants - plan.faulty:
            assert pid in result.outputs

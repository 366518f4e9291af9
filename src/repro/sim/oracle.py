"""The differential oracle: hitting-set k-set consensus versus FACT.

For one (adversary, k) pair the oracle runs both sides:

* **reference verdict** — a genuine FACT decision: build ``R_A`` from
  the adversary's agreement function and search for a chromatic
  simplicial map to the k-set-consensus output complex
  (:mod:`repro.solver`);
* **simulator verdict** — explore schedules of hitting-set k-set
  consensus under crash plans generated from the adversary: targeted
  plans (the live-set sweep) and targeted schedules (eager, split-brain
  isolation) first, then seeded random schedules.  ``pass`` means no
  explored schedule violated the protocol spec.

Agreement means: FACT says solvable ⇔ the simulator found no
violation.  On the *solvable* side a violating schedule is a genuine
counterexample to the verdict (or a protocol bug); on the
*unsolvable* side the targeted plans deterministically exhibit the
refuting schedule, so a clean pass there is equally loud.  Either
disagreement surfaces the schedule as a **replayable artifact** —
:func:`replay` re-executes the recorded event sequence step for step
and must reproduce the same decisions and violations.

Exploration scope per case is intentionally bounded (a handful of
plans x a handful of schedules); :data:`STANDARD_GRID` pins the
committed (adversary, k) pairs CI re-checks on every change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..adversaries.adversary import Adversary, from_live_sets
from ..adversaries.agreement import agreement_function_of
from ..adversaries.catalogue import catalogue_by_name
from ..core.ra import r_affine
from ..solver.api import SolveRequest, run_request
from ..tasks.set_consensus import set_consensus_task
from .faults import FaultPlan, crash_plans_from_adversary
from .library import HittingSetConsensus, Inputs
from .runtime import (
    Chooser,
    ReplayChooser,
    Runtime,
    SimRun,
    eager_chooser,
    events_from_trace,
    isolate_chooser,
    random_chooser,
    trace_of,
)

#: Version tag of the replayable-artifact format.
ARTIFACT_VERSION = 2

#: Node budget for the FACT reference queries (grid-sized instances).
FACT_BUDGET = 200_000


# ----------------------------------------------------------------------
# One simulated run
# ----------------------------------------------------------------------
def _run_once(
    protocol: HittingSetConsensus,
    plan: FaultPlan,
    inputs: Inputs,
    chooser: Chooser,
) -> SimRun:
    runtime = Runtime(
        protocol.n,
        protocol.factories(inputs),
        message_allowance=plan.allowances(),
        omission=frozenset(plan.omission),
    )
    return runtime.run(chooser)


def _choosers(
    plan: FaultPlan, schedules: int, seed: int, plan_index: int
) -> List[Tuple[str, Chooser]]:
    """Targeted schedules first, then seeded random ones."""
    correct = sorted(plan.correct)
    quarantined = frozenset(plan.faulty)
    named: List[Tuple[str, Chooser]] = [
        ("eager", eager_chooser()),
        ("isolate", isolate_chooser(correct, quarantined)),
        ("isolate-reversed", isolate_chooser(correct[::-1], quarantined)),
    ]
    for index in range(schedules):
        schedule_seed = seed * 100_003 + plan_index * 1_009 + index
        named.append(
            (f"random:{schedule_seed}", random_chooser(schedule_seed))
        )
    return named


# ----------------------------------------------------------------------
# Exploration and reports
# ----------------------------------------------------------------------
def explore(
    protocol: HittingSetConsensus,
    plans: Sequence[FaultPlan],
    schedules: int,
    seed: int,
    inputs: Optional[Inputs] = None,
) -> Dict[str, Any]:
    """Run every (plan, schedule) pair; returns the JSON-safe report."""
    inputs = dict(inputs) if inputs is not None else protocol.default_inputs()
    runs = 0
    deliveries = 0
    blocked_runs = 0
    violations = 0
    first_violation: Optional[Dict[str, Any]] = None
    for plan_index, plan in enumerate(plans):
        for label, chooser in _choosers(plan, schedules, seed, plan_index):
            run = _run_once(protocol, plan, inputs, chooser)
            runs += 1
            deliveries += run.deliveries
            if run.blocked:
                blocked_runs += 1
            found = protocol.check(plan, inputs, run)
            if found:
                violations += 1
                if first_violation is None:
                    first_violation = _artifact(
                        protocol, plan, inputs, label, run, found
                    )
    return {
        "n": protocol.n,
        "k": protocol.k,
        "plans": len(plans),
        "schedules": runs,
        "deliveries": deliveries,
        "blocked_runs": blocked_runs,
        "violations": violations,
        "pass": violations == 0,
        "first_violation": first_violation,
    }


def _artifact(
    protocol: HittingSetConsensus,
    plan: FaultPlan,
    inputs: Inputs,
    chooser_label: str,
    run: SimRun,
    violations: List[str],
) -> Dict[str, Any]:
    """The replayable schedule artifact for one violating run."""
    return {
        "version": ARTIFACT_VERSION,
        "n": protocol.n,
        "k": protocol.k,
        "adversary": sorted(
            sorted(live) for live in protocol.adversary.live_sets
        ),
        "plan": plan.to_json(),
        "inputs": {str(pid): value for pid, value in inputs.items()},
        "chooser": chooser_label,
        "events": trace_of(run),
        "decisions": {
            str(pid): value for pid, value in sorted(run.decisions.items())
        },
        "blocked": run.blocked,
        "violations": violations,
    }


def replay(artifact: Dict[str, Any]) -> Dict[str, Any]:
    """Re-execute a serialized schedule; returns the reproduced outcome.

    Raises :class:`repro.sim.runtime.ReplayError` when the recorded
    events no longer form a valid schedule (the loud signal that the
    runtime or the protocol changed semantics under a committed
    artifact).
    """
    if artifact.get("version") != ARTIFACT_VERSION:
        raise ValueError(
            f"unsupported artifact version {artifact.get('version')!r}"
        )
    adversary = from_live_sets(
        artifact["n"], [set(live) for live in artifact["adversary"]]
    )
    protocol = HittingSetConsensus(adversary, artifact["k"])
    plan = FaultPlan.from_json(artifact["plan"])
    inputs = {int(pid): value for pid, value in artifact["inputs"].items()}
    chooser = ReplayChooser(events_from_trace(artifact["events"]))
    run = _run_once(protocol, plan, inputs, chooser)
    return {
        "decisions": {
            str(pid): value for pid, value in sorted(run.decisions.items())
        },
        "blocked": run.blocked,
        "violations": protocol.check(plan, inputs, run),
    }


def write_artifact(path: str, artifact: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_artifact(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Parameterized entry points (the engine job kinds call these)
# ----------------------------------------------------------------------
def simulate_params(
    adversary: Adversary, k: int, schedules: int, seed: int
) -> Dict[str, Any]:
    """Explore hitting-set k-set consensus; the ``simulate`` job kind."""
    protocol = HittingSetConsensus(adversary, k)
    plans = crash_plans_from_adversary(adversary, seed)
    return explore(protocol, plans, schedules, seed)


def oracle_params(
    adversary: Adversary, k: int, schedules: int, seed: int
) -> Dict[str, Any]:
    """Differential check for one pair; the ``oracle`` job kind."""
    result = run_request(
        SolveRequest(
            affine=r_affine(agreement_function_of(adversary)),
            task=set_consensus_task(adversary.n, k),
            budget=FACT_BUDGET,
        )
    )
    reference = {"method": "fact", "solvable": result.solvable}
    report = simulate_params(adversary, k, schedules, seed)
    agree = bool(reference["solvable"]) == bool(report["pass"])
    return {
        "reference": reference,
        "sim": report,
        "agree": agree,
        "artifact": report["first_violation"] if not agree else None,
    }


# ----------------------------------------------------------------------
# The committed grid
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OracleCase:
    """One committed (adversary, k) differential-oracle pair."""

    name: str
    adversary: Adversary
    k: int
    schedules: int = 4
    seed: int = 7

    def payload(self) -> Tuple:
        """The engine job payload (content-addressed cache identity)."""
        return (self.adversary, self.k, self.schedules, self.seed)


def _solo_leader(n: int = 3) -> Adversary:
    """Process 0 participates in every live set: ``csize = setcon = 1``."""
    return from_live_sets(n, [{0}]).superset_closure()


def _duo_leaders(n: int = 3) -> Adversary:
    """Every live set contains 0 or 1: ``csize = setcon = 2``."""
    return from_live_sets(n, [{0}, {1}]).superset_closure()


def standard_grid() -> List[OracleCase]:
    """The committed pairs, FACT-solvable and FACT-unsolvable alike."""
    zoo = catalogue_by_name(3)
    # wait-free k=2 is deliberately absent: its FACT impossibility
    # search is orders of magnitude beyond every other grid query (the
    # hard 2-set-consensus impossibility), and the duo-leaders pair
    # covers the same setcon=2 verdict shape cheaply.
    return [
        OracleCase("ksc-wait-free-k1", zoo["wait-free"], 1),
        OracleCase("ksc-wait-free-k3", zoo["wait-free"], 3),
        OracleCase("ksc-1-resilient-k1", zoo["1-resilient"], 1),
        OracleCase("ksc-1-resilient-k2", zoo["1-resilient"], 2),
        OracleCase("ksc-figure-5b-k1", zoo["figure-5b"], 1),
        OracleCase("ksc-figure-5b-k2", zoo["figure-5b"], 2),
        OracleCase("ksc-solo-leader-k1", _solo_leader(), 1),
        OracleCase("ksc-duo-leaders-k1", _duo_leaders(), 1),
        OracleCase("ksc-duo-leaders-k2", _duo_leaders(), 2),
    ]


STANDARD_GRID: Tuple[OracleCase, ...] = tuple(standard_grid())


def grid_case(name: str) -> OracleCase:
    for case in STANDARD_GRID:
        if case.name == name:
            return case
    known = ", ".join(case.name for case in STANDARD_GRID)
    raise KeyError(f"unknown oracle case {name!r}; known cases: {known}")

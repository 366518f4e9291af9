"""Algorithm 1: solving ``R_A`` in the α-model (Section 5).

Each process runs two immediate snapshots separated by a *wait phase*:

1. ``IS1[i] <- FirstIS(input_i)`` — announce the first-round view;
2. wait until  ``crit ∨ (rank < conc)``  where

   * ``crit`` — the process belongs to a critical simplex: removing the
     processes that share its ``IS1`` view drops the agreement power of
     that view;
   * ``rank`` — how many processes it saw in round 1 have a *different*
     first view and no second view yet (potential contenders ahead of
     it);
   * ``conc`` — the concurrency allowance: the agreement power of its
     own view, or any level published in the ``Conc`` registers by
     terminated critical simplices;

3. ``IS2[i] <- SecondIS(IS1[i])``; publish ``Conc[i] = alpha(IS1[i])``
   if a critical simplex sharing the process's view has fully finished.

Theorem 7: in any α-model run, all correct processes return and the
returned second-round views form a simplex of ``R_A`` — both properties
are validated experimentally by the harness in this module (E8).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Generator, List, Optional, Tuple

from ..adversaries.agreement import AgreementFunction
from ..core.affine import AffineTask
from ..topology.chromatic import ChrVertex
from .immediate_snapshot import immediate_snapshot_protocol
from .memory import SharedMemory
from .scheduler import (
    ExecutionPlan,
    RunResult,
    random_alpha_model_plan,
    run_plan,
)


def algorithm1_protocol(
    pid: int,
    n: int,
    memory: SharedMemory,
    alpha: AgreementFunction,
) -> Generator:
    """Algorithm 1 for process ``pid`` (input = its own id).

    Returns ``(view1, view2)`` where ``view1`` is the set of processes
    seen in the first IS and ``view2`` maps each process seen in the
    second IS to its first view.
    """
    first_is = memory.snapshot_array("FirstIS")
    second_is = memory.snapshot_array("SecondIS")
    is1 = memory.snapshot_array("IS1")
    is2 = memory.snapshot_array("IS2")
    conc_regs = memory.snapshot_array("Conc", initial=0)

    # Line 5: first immediate snapshot on the initial state.
    first_view = yield from immediate_snapshot_protocol(pid, n, first_is, pid)
    view1: FrozenSet[int] = frozenset(first_view)
    yield ("update", is1, view1)

    # Lines 6-9: the wait phase.
    while True:
        is1_now = yield ("scan", is1)
        is2_now = yield ("scan", is2)
        conc_now = yield ("scan", conc_regs)
        same_view = {
            j for j in range(n) if is1_now[j] == view1
        }
        crit = alpha(view1) > alpha(view1 - same_view)
        rank = sum(
            1
            for j in view1
            if not is2_now[j] and is1_now[j] != view1
        )
        conc = max(alpha(view1), max(conc_now))
        if crit or rank < conc:
            break

    # Line 10: second immediate snapshot on the first view.
    second_view = yield from immediate_snapshot_protocol(
        pid, n, second_is, view1
    )
    view2: Dict[int, FrozenSet[int]] = dict(second_view)
    yield ("update", is2, view2)

    # Lines 11-12: publish the concurrency level of a terminated
    # critical simplex.
    is1_now = yield ("scan", is1)
    is2_now = yield ("scan", is2)
    finished_same_view = {
        j
        for j in range(n)
        if is1_now[j] == view1 and is2_now[j]
    }
    if alpha(view1) > alpha(view1 - finished_same_view):
        yield ("update", conc_regs, alpha(view1))

    return view1, view2


# ----------------------------------------------------------------------
# Harness: run the protocol, map outputs into Chr² s, check against R_A
# ----------------------------------------------------------------------
def outputs_to_simplex(
    outputs: Dict[int, Tuple[FrozenSet[int], Dict[int, FrozenSet[int]]]],
) -> FrozenSet[ChrVertex]:
    """Interpret per-process ``(view1, view2)`` as a simplex of ``Chr² s``.

    The first-round vertex of process ``j`` is ``(j, view1_j)``; the
    second-round vertex of ``i`` is ``(i, {(j, view1_j) : j seen})``.
    """
    simplex = set()
    for pid, (_, view2) in outputs.items():
        carrier = frozenset(
            ChrVertex(j, frozenset(view1_j)) for j, view1_j in view2.items()
        )
        simplex.add(ChrVertex(pid, carrier))
    return frozenset(simplex)


@dataclass
class Algorithm1Outcome:
    """One validated execution of Algorithm 1."""

    plan: ExecutionPlan
    result: RunResult
    simplex: FrozenSet[ChrVertex]
    in_affine_task: bool


def run_algorithm1(
    alpha: AgreementFunction,
    plan: ExecutionPlan,
    affine_task: Optional[AffineTask] = None,
    max_steps: int = 200_000,
) -> Algorithm1Outcome:
    """Execute Algorithm 1 under a plan and check Theorem 7's safety.

    Liveness (all correct processes decide) is enforced by
    :func:`repro.runtime.scheduler.run_plan`, which raises
    :class:`LivenessViolation` otherwise.
    """
    n = alpha.n

    def factory(pid: int, memory: SharedMemory):
        return algorithm1_protocol(pid, n, memory, alpha)

    result = run_plan(factory, n, plan, max_steps=max_steps)
    simplex = outputs_to_simplex(result.outputs)
    in_task = True
    if affine_task is not None:
        in_task = simplex in affine_task.complex
    return Algorithm1Outcome(plan, result, simplex, in_task)


def fuzz_case_seed(base_seed: int, index: int) -> int:
    """A deterministic, well-mixed per-case seed for batch fuzzing.

    Derived by hashing ``(base_seed, index)``, so every case has an
    independent RNG stream and a batch's outcomes depend only on the
    base seed and the case index — never on worker count or on the
    order cases happen to execute in.
    """
    import hashlib

    material = f"repro.algorithm1:{base_seed}:{index}".encode("ascii")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def run_fuzz_case(
    alpha: AgreementFunction,
    affine_task: AffineTask,
    case_seed: int,
    max_steps: int = 200_000,
) -> Algorithm1Outcome:
    """One self-contained fuzz case: plan from ``case_seed``, then run.

    The engine's ``fuzz`` job kind calls this in worker processes; the
    plan is regenerated from the seed on the worker, so only scalars
    cross the process boundary.
    """
    rng = random.Random(case_seed)
    plan = random_alpha_model_plan(alpha, rng)
    return run_algorithm1(alpha, plan, affine_task, max_steps=max_steps)


def fuzz_algorithm1(
    alpha: AgreementFunction,
    affine_task: AffineTask,
    runs: int,
    seed: int = 0,
) -> List[Algorithm1Outcome]:
    """Experiment E8: many random α-model executions, all validated.

    Case ``i`` runs :func:`run_fuzz_case` on ``fuzz_case_seed(seed, i)``
    — the schedules the engine's ``fuzz`` jobs explore for this seed.
    Raises ``AssertionError`` on any safety violation and
    :class:`LivenessViolation` on any liveness failure.
    """
    outcomes = []
    for index in range(runs):
        outcome = run_fuzz_case(alpha, affine_task, fuzz_case_seed(seed, index))
        if not outcome.in_affine_task:
            raise AssertionError(
                f"Theorem 7 safety violated: outputs {outcome.simplex} "
                f"outside {affine_task.name} under plan {outcome.plan}"
            )
        outcomes.append(outcome)
    return outcomes

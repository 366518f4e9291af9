"""The executable protocol: hitting-set k-set consensus with its checker.

k-set consensus for crash faults under a superset-closed adversary:
await any proposal from a fixed minimal hitting set ``H`` of the live
sets, decide the lowest-id ``H`` member's value.  At most
``|H| = csize(A) = setcon(A)`` distinct decisions, and ``H`` meets
every allowed correct set, so the protocol is live exactly when
``setcon(A) <= k`` — the same condition FACT decides topologically,
which is what makes the differential oracle meaningful.  When
``csize(A) > k`` the protocol honestly attempts ``H = {0..k-1}`` and
deadlocks under some live set (the oracle's expected refutation).

The protocol ships generator factories for every process and a **spec
checker** mapping one finished run to a list of violations (empty =
the schedule satisfies the spec).
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List

from ..adversaries.adversary import Adversary
from ..adversaries.setcon import csize, minimal_hitting_set
from .faults import FaultPlan
from .runtime import SimRun, ThresholdGuard

Inputs = Dict[int, str]
Factory = Callable[[int], Generator]


class HittingSetConsensus:
    """k-set consensus over the adversary's minimal hitting set."""

    def __init__(self, adversary: Adversary, k: int):
        self.n = adversary.n
        self.k = k
        self.adversary = adversary
        if csize(adversary) <= k:
            self.hitting = tuple(sorted(minimal_hitting_set(adversary)))
        else:
            # No k-sized hitting set exists; attempt the lexicographic
            # first k processes — some live set evades it, and the
            # induced deadlock is the oracle's expected refutation.
            self.hitting = tuple(range(k))

    def default_inputs(self) -> Inputs:
        return {pid: f"v{pid}" for pid in range(self.n)}

    def factories(self, inputs: Inputs) -> Dict[int, Factory]:
        """Generator factories for every process."""
        return {
            pid: lambda pid: _hitting_set_process(self, pid, inputs)
            for pid in range(self.n)
        }

    def check(
        self, plan: FaultPlan, inputs: Inputs, run: SimRun
    ) -> List[str]:
        """Spec violations of one finished run (empty = pass)."""
        violations: List[str] = []
        decisions = sorted(set(run.decisions.values()))
        if len(decisions) > self.k:
            violations.append(
                f"agreement: {len(decisions)} distinct decisions "
                f"{decisions} > k={self.k}"
            )
        proposed = set(inputs.values())
        for value in decisions:
            if value not in proposed:
                violations.append(f"validity: {value!r} was never proposed")
        undecided = sorted(plan.correct - set(run.decisions))
        if undecided:
            violations.append(f"liveness: undecided correct {undecided}")
        return violations


def _hitting_set_process(
    ksc: HittingSetConsensus, pid: int, inputs: Inputs
) -> Generator:
    yield ("broadcast", 0, "prop", inputs[pid])
    bag = yield (
        "await",
        ThresholdGuard((0, "prop"), 1, senders=frozenset(ksc.hitting)),
    )
    proposals = bag.get((0, "prop"), {})
    leader = min(member for member in ksc.hitting if member in proposals)
    return proposals[leader]

"""Fault plans: crash and omission adversaries for the sim.

A :class:`FaultPlan` fixes *who* misbehaves and *how* for one execution:

* **crash** — a per-process message allowance; the process stops
  mid-broadcast when it runs out (allowance 0 = crash before sending
  anything).  Crash plans are generated from the existing
  ``repro.adversaries`` catalogue: each live set of the adversary is a
  candidate *correct* set, everyone else crashes — fair adversaries
  induce exactly these participation patterns;
* **omission** — every message the process sends is individually
  droppable by the scheduler.

Targeted plans come first in every generated list: the live-set sweep
(one plan per live set) deterministically exposes participation-pattern
deadlocks — random sampling only adds diversity on top.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Tuple

from ..adversaries.adversary import Adversary


@dataclass(frozen=True)
class FaultPlan:
    """One execution's fault assignment (hashable, deterministic)."""

    n: int
    #: (pid, message allowance) for each crash-faulty process.
    crashes: Tuple[Tuple[int, int], ...] = ()
    #: Processes whose every message is droppable.
    omission: Tuple[int, ...] = ()
    note: str = ""

    @property
    def faulty(self) -> FrozenSet[int]:
        return frozenset(pid for pid, _ in self.crashes) | frozenset(
            self.omission
        )

    @property
    def correct(self) -> FrozenSet[int]:
        return frozenset(range(self.n)) - self.faulty

    def allowances(self) -> Dict[int, int]:
        return dict(self.crashes)

    def to_json(self) -> Dict[str, Any]:
        return {
            "n": self.n,
            "crashes": [list(pair) for pair in self.crashes],
            "omission": list(self.omission),
            "note": self.note,
        }

    @staticmethod
    def from_json(data: Dict[str, Any]) -> "FaultPlan":
        return FaultPlan(
            n=data["n"],
            crashes=tuple(
                (pid, allowance) for pid, allowance in data["crashes"]
            ),
            omission=tuple(data["omission"]),
            note=data.get("note", ""),
        )


def crash_plans_from_adversary(
    adversary: Adversary, seed: int, samples: int = 4
) -> List[FaultPlan]:
    """Crash plans induced by an adversary's live sets.

    Targeted: one plan per live set — that set is correct, everyone
    else is silent from the start (allowance 0).  These are the extreme
    participation patterns; a protocol that deadlocks under *some*
    allowed participation deadlocks under one of them.  Sampled plans
    then vary the crash points (partial broadcasts) and occasionally
    promote one crashed process to omission-faulty.
    """
    n = adversary.n
    plans: List[FaultPlan] = []
    live_sets = sorted(sorted(live) for live in adversary.live_sets)
    for live in live_sets:
        others = [pid for pid in range(n) if pid not in live]
        plans.append(
            FaultPlan(
                n=n,
                crashes=tuple((pid, 0) for pid in others),
                note=f"live-set {live}",
            )
        )
    rng = random.Random(seed)
    for index in range(samples):
        live = list(rng.choice(live_sets))
        others = [pid for pid in range(n) if pid not in live]
        crashes = []
        omission: List[int] = []
        for pid in others:
            if others and rng.random() < 0.25:
                omission.append(pid)
            else:
                crashes.append((pid, rng.randint(0, 2 * n)))
        plans.append(
            FaultPlan(
                n=n,
                crashes=tuple(crashes),
                omission=tuple(omission),
                note=f"sampled #{index} live-set {live}",
            )
        )
    return plans

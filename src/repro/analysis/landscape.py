"""The complete landscape of small adversaries.

The paper characterizes *fair* adversaries; at n = 3 the space of all
adversaries is small enough to enumerate outright (127 non-empty
collections of non-empty live sets).  This module classifies every one
of them — fairness, agreement power, agreement function, affine task —
and aggregates the landscape:

* how much of the space fairness covers,
* how many distinct agreement functions (and hence α-models) exist,
* how many distinct affine tasks ``R_A`` arise, and which fair
  adversaries collapse to the same one (the paper's Theorem 15 says
  task computability only depends on ``R_A``).

This is the exhaustive backdrop to Figure 2: not just examples in each
region, but the whole census.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterator, List, Tuple

from ..adversaries.adversary import Adversary
from ..adversaries.agreement import AgreementFunction, agreement_function_of
from ..core.affine import AffineTask


def all_adversaries(n: int) -> Iterator[Adversary]:
    """Every non-empty adversary over ``n`` processes.

    There are ``2^(2^n - 1) - 1`` of them; feasible for n <= 3.
    """
    subsets = [
        frozenset(combo)
        for size in range(1, n + 1)
        for combo in combinations(range(n), size)
    ]
    for count in range(1, len(subsets) + 1):
        for collection in combinations(subsets, count):
            yield Adversary(n, collection)


@dataclass
class LandscapeEntry:
    """Classification of one adversary."""

    adversary: Adversary
    fair: bool
    superset_closed: bool
    symmetric: bool
    power: int
    alpha_key: Tuple[Tuple[Tuple[int, ...], int], ...]

    @property
    def live_set_count(self) -> int:
        return len(self.adversary)


def alpha_signature(alpha: AgreementFunction) -> Tuple:
    """A hashable key identifying the agreement function."""
    return tuple(
        sorted(
            (tuple(sorted(participants)), value)
            for participants, value in alpha.table().items()
        )
    )


def _engine_or_default(engine):
    """``engine``, or an in-process :class:`repro.engine.Engine`."""
    # Imported here: the engine imports this module for its records.
    from ..engine.jobs import Engine

    return engine or Engine()


def classify_all(n: int = 3, engine=None) -> List[LandscapeEntry]:
    """Classify every adversary over ``n`` processes.

    Classification runs as one engine batch (``engine``, or an
    in-process ``Engine()`` when none is given).
    """
    return _engine_or_default(engine).classify_many(all_adversaries(n))


@dataclass
class LandscapeSummary:
    """Aggregate view of the adversary landscape."""

    total: int
    fair: int
    superset_closed: int
    symmetric: int
    power_histogram: Dict[int, int]
    distinct_alphas_fair: int
    distinct_affine_tasks: int
    largest_alpha_class: int


def summarize(
    entries: List[LandscapeEntry],
    build_affine: bool = True,
    engine=None,
) -> LandscapeSummary:
    """Aggregate the landscape; optionally build every distinct ``R_A``.

    Affine tasks are built once per distinct agreement function (the
    construction only depends on α), so the expensive step is bounded
    by the number of distinct α's, not the number of adversaries.
    """
    power_histogram: Dict[int, int] = {}
    alpha_classes: Dict[Tuple, int] = {}
    for entry in entries:
        power_histogram[entry.power] = (
            power_histogram.get(entry.power, 0) + 1
        )
        if entry.fair:
            alpha_classes[entry.alpha_key] = (
                alpha_classes.get(entry.alpha_key, 0) + 1
            )

    distinct_tasks = 0
    if build_affine and entries:
        seen_complexes = set()
        representatives: Dict[Tuple, Adversary] = {}
        for entry in entries:
            if entry.fair and entry.alpha_key not in representatives:
                representatives[entry.alpha_key] = entry.adversary
        tasks = _engine_or_default(engine).r_affine_many(
            agreement_function_of(adversary)
            for adversary in representatives.values()
        )
        for task in tasks:
            seen_complexes.add(task.complex)
        distinct_tasks = len(seen_complexes)

    return LandscapeSummary(
        total=len(entries),
        fair=sum(1 for e in entries if e.fair),
        superset_closed=sum(1 for e in entries if e.superset_closed),
        symmetric=sum(1 for e in entries if e.symmetric),
        power_histogram=dict(sorted(power_histogram.items())),
        distinct_alphas_fair=len(alpha_classes),
        distinct_affine_tasks=distinct_tasks,
        largest_alpha_class=max(alpha_classes.values(), default=0),
    )


def fair_task_classes(
    n: int = 3, engine=None
) -> Dict[AffineTask, List[Adversary]]:
    """Group fair adversaries by their affine task ``R_A``.

    Theorem 15 says members of one class solve exactly the same tasks.
    Fairness comes from the batched classification and the per-α
    ``R_A`` constructions run as one batch.
    """
    engine = _engine_or_default(engine)
    fair = [entry for entry in classify_all(n, engine=engine) if entry.fair]
    alphas: Dict[Tuple, AgreementFunction] = {}
    for entry in fair:
        if entry.alpha_key not in alphas:
            alphas[entry.alpha_key] = agreement_function_of(entry.adversary)
    alpha_to_task = dict(zip(alphas, engine.r_affine_many(alphas.values())))
    classes: Dict[AffineTask, List[Adversary]] = {}
    for entry in fair:
        classes.setdefault(alpha_to_task[entry.alpha_key], []).append(
            entry.adversary
        )
    return classes

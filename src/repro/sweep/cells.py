"""One sweep cell as a pure, cacheable engine computation.

A *cell* is one ``(adversary, k)`` point of a landscape grid: classify
the adversary (fairness, closure properties, agreement power), and —
when it is fair with positive power — build its affine task ``R_A`` and
decide ``k``-set consensus on it under a node budget.  The cell value
is a JSON-safe record, so it travels unchanged through the engine's
content-addressed cache (the sweep's checkpoint) into the final
landscape artifact.

Budget handling reuses the engine's split-retry machinery verbatim: the
solve runs through a private in-process :class:`~repro.engine.jobs.
Engine` whose ``split_retries`` level comes from the grid, so an
overrun is retried as domain-partitioned sub-searches with geometric
budget escalation before the cell honestly records a ``budget``
outcome.  ``R_A`` constructions are memoized per agreement function
within the worker process — cells of one sweep share a handful of
distinct alphas, and the construction dominates fair-cell cost.

Records are fully deterministic: verdicts and node counts come from
the bitset kernel, which walks the reference search tree, and no
wall-clock or environment data is ever included — this is what makes
a resumed sweep's artifact byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..adversaries.adversary import Adversary
from ..adversaries.agreement import agreement_function_of
from ..adversaries.fairness import is_fair
from ..adversaries.setcon import setcon

__all__ = ["KERNEL", "compute_cell", "cell_payload"]

#: The one value of a cell's ``kernel`` slot: every cell runs on the
#: bitset kernel, whose node counts are the reference search's.  The
#: slot stays in grid documents, digests and cell payloads so existing
#: artifacts keep their bytes.
KERNEL = "bitset"

#: Per-process memo of ``R_A`` constructions, keyed by the agreement
#: function's canonical signature.  Bounded by the number of distinct
#: alphas in a sweep (small) — never by the number of cells.
_RA_MEMO: Dict[Tuple, Any] = {}


def cell_payload(
    adversary: Adversary,
    k: int,
    budget: int,
    kernel: str,
    variant: str,
    split_retries: int,
) -> tuple:
    """The canonical engine payload of one sweep cell (``kernel`` must
    be :data:`KERNEL`)."""
    return (adversary, k, budget, kernel, variant, split_retries)


def _ra_for(alpha, variant):
    from ..analysis.landscape import alpha_signature
    from ..core.ra import r_affine

    key = (alpha_signature(alpha), variant)
    task = _RA_MEMO.get(key)
    if task is None:
        task = r_affine(alpha, variant)
        _RA_MEMO[key] = task
    return task


def _solve_outcome(
    affine,
    task,
    budget: int,
    split_retries: int,
) -> Dict[str, Any]:
    """Decide ``task`` on ``affine`` with split-retry escalation.

    Returns a JSON-safe outcome: ``verdict`` is ``solvable`` /
    ``unsolvable`` / ``budget`` (the budget case records the nodes spent
    and how many split levels were burned — an honest partial result,
    not an error).
    """
    from ..engine.jobs import Engine, JobSpec
    from ..solver.api import SolveRequest

    request = SolveRequest(affine=affine, task=task, budget=budget)
    inner = Engine(jobs=1, split_retries=split_retries)
    (result,) = inner.run_jobs([JobSpec("solve", (request,))])
    if result.error == "budget":
        return {
            "verdict": "budget",
            "nodes": result.nodes_explored or 0,
            "splits": result.splits,
            "budget": budget,
        }
    if not result.ok:  # pragma: no cover - inner jobs only fail on bugs
        raise RuntimeError(f"sweep cell solve failed: {result.error}")
    mapping, nodes = result.value
    return {
        "verdict": "solvable" if mapping is not None else "unsolvable",
        "nodes": nodes,
        "splits": result.splits,
        "budget": budget,
    }


def compute_cell(payload: tuple) -> Dict[str, Any]:
    """Classify one adversary and (when fair) solve one grid task."""
    from ..analysis.landscape import alpha_signature
    from ..engine.serialize import digest
    from ..tasks.set_consensus import set_consensus_task

    adversary, k, budget, kernel, variant, split_retries = payload
    if kernel != KERNEL:
        raise ValueError(f"unknown kernel {kernel!r}; sweeps run on {KERNEL!r}")
    fair = is_fair(adversary)
    record: Dict[str, Any] = {
        "n": adversary.n,
        "live_sets": sorted(sorted(live) for live in adversary.live_sets),
        "k": k,
        "fair": fair,
        "superset_closed": adversary.is_superset_closed(),
        "symmetric": adversary.is_symmetric(),
        "power": setcon(adversary),
        "alpha_digest": None,
        "ra": None,
        "solve": None,
    }
    if not fair or record["power"] < 1:
        return record
    alpha = agreement_function_of(adversary)
    record["alpha_digest"] = digest(alpha_signature(alpha))
    affine = _ra_for(alpha, variant)
    record["ra"] = {
        "facets": len(affine.complex.facets),
        "vertices": len(affine.complex.vertices),
        "depth": affine.depth,
    }
    record["solve"] = _solve_outcome(
        affine,
        set_consensus_task(adversary.n, k),
        budget,
        split_retries,
    )
    return record

"""Compactness of affine models (Section 1, "Compact models").

A model — a set of infinite runs under the longest-prefix metric — is
*compact* when it contains its limit points: if every finite prefix of
a run extends to a run of the model, the run is in the model.  Affine
models are compact by construction; most adversarial models are not.

This module makes both halves executable for the paper's examples:

* :func:`affine_model_is_prefix_closed` — the structural fact behind
  affine-model compactness: any facet sequence is a legal prefix and
  extends, so the limit criterion is trivially satisfied;
* :func:`solo_run_prefixes_comply_one_resilient` — the paper's
  non-compactness witness for 1-resilience (three processes): every
  finite prefix of the solo run complies, yet the infinite solo run has
  only one correct process and is not 1-resilient;
* :func:`obstruction_free_witness` — the 1-obstruction-free 2-process
  witness: all finite runs comply, but only eventually-solo infinite
  runs are in the model;
* :func:`bounded_round_solvability` — the König-style consequence: a
  task solvable in an affine model is solvable in a *bounded* number of
  iterations, found by breadth-first search over iteration depths.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..adversaries.adversary import t_resilient, k_obstruction_free
from ..core.affine import AffineTask
from ..tasks.solvability import MapSearch
from ..tasks.task import Task


def affine_model_is_prefix_closed(task: AffineTask, length: int = 2) -> bool:
    """Every ``L^m`` facet extends to an ``L^{m+1}`` facet.

    This is the reason ``L*`` is compact: membership of an infinite run
    is equivalent to membership of each of its finite prefixes, and
    prefixes never dead-end.
    """
    current = [ (facet,) for facet in sorted(task.complex.facets, key=repr) ]
    for _ in range(length):
        if not current:
            return False
        # Every prefix extends by any facet: composition never blocks.
        sample = current[0]
        extended = [sample + (facet,) for facet in task.complex.facets]
        if not extended:
            return False
        current = extended[:1]
    return True


def solo_run_prefixes_comply_one_resilient(n: int = 3) -> Dict[str, bool]:
    """The paper's 1-resilience witness, checked mechanically.

    A finite prefix *complies* with the model when it can be extended
    to an infinite run whose correct set is a live set.  For the solo
    run of process 0: any finite prefix extends (wake the sleepers up),
    but the infinite solo run has correct set ``{0}``, too small for
    ``A_{1-res}``.
    """
    adversary = t_resilient(n, 1)
    solo_correct = frozenset([0])
    prefix_extensible = any(
        solo_correct <= live for live in adversary.live_sets
    )
    limit_in_model = solo_correct in adversary.live_sets
    return {
        "every_prefix_complies": prefix_extensible,
        "limit_run_in_model": limit_in_model,
        "compact": not (prefix_extensible and not limit_in_model),
    }


def obstruction_free_witness(n: int = 2) -> Dict[str, bool]:
    """The 1-obstruction-free witness: perpetual alternation.

    Finite alternating prefixes always comply (one process can run solo
    from now on), but the infinite alternating run has correct set of
    size 2 — not a live set of the 1-obstruction-free adversary.
    """
    adversary = k_obstruction_free(n, 1)
    alternating_correct = frozenset(range(n))
    prefix_extensible = any(
        live <= alternating_correct for live in adversary.live_sets
    )
    limit_in_model = alternating_correct in adversary.live_sets
    return {
        "every_prefix_complies": prefix_extensible,
        "limit_run_in_model": limit_in_model,
        "compact": not (prefix_extensible and not limit_in_model),
    }


def bounded_round_solvability(
    affine: AffineTask,
    task: Task,
    max_depth: int = 2,
    budget: Optional[int] = None,
) -> Optional[int]:
    """Smallest iteration count of ``L`` solving the task, or None.

    The compactness consequence (König's lemma) is that solvability in
    ``L*`` means solvability at *some* finite depth; this procedure
    finds it by increasing depth.  Depth is capped because ``L^m``
    grows as ``facets^m``.
    """
    current = affine
    for depth in range(1, max_depth + 1):
        if MapSearch(current, task).search(budget) is not None:
            return depth
        if depth < max_depth:
            current = current.compose_with(affine)
    return None

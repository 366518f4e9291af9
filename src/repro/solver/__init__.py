"""repro.solver — the bitset constraint kernel behind a typed solve API.

The FACT decision procedure is a constraint problem; this package is
its production kernel.  :class:`SolveRequest`/:class:`SolveResult` are
the typed query surface the engine, service and CLI share;
:class:`BitsetKernel` is the tree-identical integer rewrite of the
reference :class:`~repro.tasks.solvability.MapSearch` (same verdicts,
maps *and node counts* — the reference stays on as the
differential-testing oracle).  It searches the :class:`InternTable` of
a problem: one allowed-image set and one allowed-candidate memo per
distinct participation of ``L``.  :func:`split_request` slices a
request for the engine's split-retry.
See docs/solver.md.
"""

from .api import (
    SolveRequest,
    SolveResult,
    as_solve_request,
    make_searcher,
    run_request,
    solve_request_from_payload,
)
from .interning import InternTable
from .kernel import BitsetKernel
from .split import split_request

__all__ = [
    "BitsetKernel",
    "InternTable",
    "SolveRequest",
    "SolveResult",
    "as_solve_request",
    "make_searcher",
    "run_request",
    "solve_request_from_payload",
    "split_request",
]

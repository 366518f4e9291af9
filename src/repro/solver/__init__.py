"""repro.solver — bitset constraint kernels behind a typed solve API.

The FACT decision procedure is a constraint problem; this package is
its production kernel.  :class:`SolveRequest`/:class:`SolveResult` are
the typed query surface the engine, service and CLI share;
:class:`BitsetKernel` is the default tree-identical integer rewrite of
the legacy :class:`~repro.tasks.solvability.MapSearch` (same verdicts,
maps *and node counts* — legacy stays on as the differential-testing
oracle); :class:`ForwardCheckingKernel` is the opt-in pruning kernel.
Both search the :class:`InternTable` of a problem: one allowed-image
set and one allowed-candidate memo per distinct participation of
``L``.  :func:`split_request` slices a request for the engine's
split-retry.
See docs/solver.md.
"""

from .api import (
    DEFAULT_KERNEL,
    KERNEL_BITSET,
    KERNEL_FC,
    KERNEL_LEGACY,
    KERNELS,
    TREE_IDENTICAL_KERNELS,
    SolveRequest,
    SolveResult,
    as_solve_request,
    make_searcher,
    run_request,
    solve_request_from_payload,
)
from .interning import InternTable
from .kernel import BitsetKernel, ForwardCheckingKernel
from .split import split_request

__all__ = [
    "BitsetKernel",
    "DEFAULT_KERNEL",
    "ForwardCheckingKernel",
    "InternTable",
    "KERNELS",
    "KERNEL_BITSET",
    "KERNEL_FC",
    "KERNEL_LEGACY",
    "SolveRequest",
    "SolveResult",
    "TREE_IDENTICAL_KERNELS",
    "as_solve_request",
    "make_searcher",
    "run_request",
    "solve_request_from_payload",
    "split_request",
]

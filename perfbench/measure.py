"""Calibration units and the order statistics the benchmark reports.

The host's speed drifts by tens of percent within a minute, so a raw
wall time says as much about the machine as about the code.  Every op
is therefore timed twice over: the op itself, and right before it (and
right after it, for long ops) a fixed pure-Python slice of frozenset
and dict work, the same kind of work the library's hot paths do.  The
op's cost in *calibration units* (cu) is its wall time over the slice
time; the slice is never inside the op's timing.  Short ops share a point
taken at most ``CAL_FRESH_S`` before they start.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, Optional, Sequence

#: Slices per calibration point; the point is their median, so one
#: descheduled slice does not move it.
CAL_REPS = 3

#: Ops longer than this get a second calibration point after them.
LONG_OP_S = 0.25

#: A calibration point is reused by ops that start within this many
#: seconds of it, so short ops are not mostly calibration.
CAL_FRESH_S = 0.2

#: Nominal slice time on the reference host, used to express a
#: calibrated duration in seconds (``setup_s``).
CAL_NOMINAL_S = 0.010


def cal_slice(rounds: int = 6000) -> int:
    """One fixed unit of frozenset hashing and dict probing."""
    table: Dict[frozenset, int] = {}
    for i in range(rounds):
        key = frozenset((i % 97, (i * 7) % 89, (i * 13) % 83))
        table[key] = table.get(key, 0) + 1
    probe = frozenset(range(0, 97, 3))
    hits = 0
    for key, count in table.items():
        if key & probe:
            hits += count
        if key | probe in table:
            hits -= 1
    return hits


def calibrate() -> float:
    """Seconds per slice right now (median of ``CAL_REPS`` slices)."""
    samples = []
    for _ in range(CAL_REPS):
        started = time.perf_counter()
        cal_slice()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def median(values: Sequence[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def iqm(values: Sequence[float]) -> Optional[float]:
    """Interquartile mean: the mean of the middle half of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return None
    quarter = len(ordered) // 4
    middle = ordered[quarter : len(ordered) - quarter]
    return sum(middle) / len(middle)


def tail(values: Sequence[float], percentile: float) -> Dict[str, Optional[float]]:
    """The nearest-rank ``percentile`` of ``values`` and the samples beyond it.

    The percentile is fixed per workload, not taken from the sample
    count, so the tail reads the same quantile however many ops fit a
    run's window.
    """
    ordered = sorted(values)
    if not ordered:
        return {"value": None, "percentile": percentile, "beyond": 0}
    rank = max(math.ceil(percentile / 100.0 * len(ordered)), 1)
    return {
        "value": ordered[rank - 1],
        "percentile": percentile,
        "beyond": len(ordered) - rank,
    }

"""repro.sim — deterministic crash-fault protocol simulator + oracle.

The subsystem that *runs* a protocol instead of reasoning about it:

* :mod:`~repro.sim.runtime` — guard-based message-passing runtime with
  an adversary-driven event scheduler and replayable traces;
* :mod:`~repro.sim.faults` — crash / omission fault plans, generated
  from the ``repro.adversaries`` catalogue;
* :mod:`~repro.sim.library` — hitting-set k-set consensus with its spec
  checker;
* :mod:`~repro.sim.oracle` — the differential oracle comparing
  simulator outcomes against FACT verdicts, with serialized replay
  artifacts on disagreement.

Everything is seeded and platform-deterministic: the same seed yields
a byte-identical schedule trace.
"""

from .faults import FaultPlan, crash_plans_from_adversary
from .library import HittingSetConsensus
from .oracle import (
    ARTIFACT_VERSION,
    STANDARD_GRID,
    OracleCase,
    explore,
    grid_case,
    load_artifact,
    oracle_params,
    replay,
    simulate_params,
    standard_grid,
    write_artifact,
)
from .runtime import (
    ReplayChooser,
    ReplayError,
    Runtime,
    SimError,
    SimRun,
    ThresholdGuard,
    eager_chooser,
    events_from_trace,
    isolate_chooser,
    random_chooser,
    trace_of,
)

__all__ = [
    "ARTIFACT_VERSION",
    "FaultPlan",
    "HittingSetConsensus",
    "OracleCase",
    "ReplayChooser",
    "ReplayError",
    "Runtime",
    "STANDARD_GRID",
    "SimError",
    "SimRun",
    "ThresholdGuard",
    "crash_plans_from_adversary",
    "eager_chooser",
    "events_from_trace",
    "explore",
    "grid_case",
    "isolate_chooser",
    "load_artifact",
    "oracle_params",
    "random_chooser",
    "replay",
    "simulate_params",
    "standard_grid",
    "trace_of",
    "write_artifact",
]

"""Checkpointed landscape sweeps.

The n >= 4 regime of the paper's landscape (every adversary classified,
every fair one's affine task ``R_A`` solved against the set-consensus
grid) is combinatorially explosive: ``Chr^m s`` facet counts follow the
Fubini numbers.  This package makes large sweeps incremental instead of
monolithic:

* :mod:`repro.sweep.cells` — one sweep cell (adversary x task) as a
  pure engine computation: classification, ``R_A`` construction and a
  budgeted FACT solve with engine split-retry escalation;
* :mod:`repro.sweep.driver` — grid specs as frozen dataclasses with
  content-addressed digests, a deterministic adversary sampler for the
  regimes where exhaustive enumeration is impossible, and a sweep
  driver whose checkpoint is the engine's artifact cache: every
  completed cell is stored as it finishes, so a killed sweep run again
  continues where it stopped and produces a byte-identical artifact.
"""

from .driver import (
    GRID_PRESETS,
    GridSpec,
    SweepDriver,
    load_grid,
    sample_adversaries,
)

__all__ = [
    "GRID_PRESETS",
    "GridSpec",
    "SweepDriver",
    "load_grid",
    "sample_adversaries",
]

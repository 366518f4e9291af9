"""Resumable landscape sweeps over (adversary x task) grids.

A sweep is described by a :class:`GridSpec` — a frozen dataclass whose
content-addressed digest identifies the grid exactly (process count,
adversary source, task axis, budgets, kernel).  The driver expands the
grid into deterministic cells and runs each cell as a ``sweep`` engine
job over one :class:`~repro.engine.cache.ArtifactCache` rooted at the
checkpoint directory.  The engine stores each cell's record as soon as
it completes, so that cache entry is the cell's checkpoint.  Kill the
process at any point and run the same grid again: cells found in the
cache are loaded, never recomputed, and the final artifact is
byte-identical to an uninterrupted run's.

Checkpoint layout (under the checkpoint directory)::

    objects/<digest[:2]>/<digest>.json   one cache entry per completed cell

A cell's key is its full engine payload, so one directory can hold any
number of grids, and cells shared between them are computed once.

For ``n >= 4`` exhaustive enumeration is impossible (``2^(2^n-1) - 1``
adversaries), so grids can declare a *sampled* adversary source:
:func:`sample_adversaries` draws a deterministic, platform-independent
sample of the space from a seed.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
import time
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .. import obs
from ..adversaries.adversary import Adversary
from .cells import KERNEL, cell_payload

__all__ = [
    "GRID_PRESETS",
    "CellState",
    "GridSpec",
    "SweepDriver",
    "load_grid",
    "sample_adversaries",
]

GRID_FORMAT = "repro.sweep/grid"
ARTIFACT_FORMAT = "repro.sweep/landscape"
SWEEP_VERSION = 1

#: Valid adversary sources for a grid.
SOURCES = ("exhaustive", "sample", "explicit")

#: Seconds to pause after each completed cell.  A throttle for the
#: kill-and-resume tests (a SIGKILL must land *mid-grid* reliably) and
#: for operators who want a long sweep to yield the machine; records
#: are unaffected, so artifacts stay byte-identical with or without it.
CELL_DELAY_ENV = "REPRO_SWEEP_CELL_DELAY"


# ----------------------------------------------------------------------
# Deterministic sampling of adversary space
# ----------------------------------------------------------------------
def _subset_universe(n: int) -> List[frozenset]:
    """All non-empty subsets of ``range(n)`` in canonical (size, lex) order."""
    return [
        frozenset(combo)
        for size in range(1, n + 1)
        for combo in combinations(range(n), size)
    ]


def _adversary_sort_key(adversary: Adversary) -> tuple:
    return (
        len(adversary.live_sets),
        sorted(sorted(live) for live in adversary.live_sets),
    )


def sample_adversaries(n: int, seed: int, count: int) -> List[Adversary]:
    """A deterministic sample of ``count`` distinct adversaries over ``n``.

    Adversaries are drawn uniformly over the ``2^(2^n - 1) - 1``
    non-empty collections of non-empty live sets via a seeded Mersenne
    Twister (bit masks over the canonical subset order — no dependence
    on hash seeds or platform), de-duplicated, and returned in canonical
    sorted order so grid cell numbering is stable.
    """
    subsets = _subset_universe(n)
    space = (1 << len(subsets)) - 1
    if not 1 <= count <= min(space, 1 << 20):
        raise ValueError(f"count must be in 1..{min(space, 1 << 20)}")
    rng = random.Random(f"repro.sweep:{n}:{seed}")
    chosen: Dict[Tuple[Tuple[int, ...], ...], Adversary] = {}
    while len(chosen) < count:
        mask = rng.getrandbits(len(subsets))
        if mask == 0:
            continue
        live = [s for i, s in enumerate(subsets) if (mask >> i) & 1]
        adversary = Adversary(n, live)
        key = tuple(
            tuple(sorted(s)) for s in sorted(live, key=lambda s: sorted(s))
        )
        chosen.setdefault(key, adversary)
    return sorted(chosen.values(), key=_adversary_sort_key)


# ----------------------------------------------------------------------
# Grid specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GridSpec:
    """One landscape sweep, fully determined by its fields.

    ``source`` picks the adversary axis: ``exhaustive`` enumerates the
    whole space (n <= 3 only), ``sample`` draws ``sample_count``
    adversaries from ``seed``, ``explicit`` uses ``live_sets`` (a tuple
    of adversaries, each a tuple of live-set tuples).  ``ks`` is the
    set-consensus task axis; ``budget``/``split_retries`` bound each
    cell's solve; ``variant`` pins the ``R_A`` construction and
    ``kernel`` must be :data:`KERNEL`.
    """

    name: str
    n: int
    source: str
    ks: Tuple[int, ...]
    budget: int = 20000
    kernel: str = KERNEL
    variant: str = "union"
    split_retries: int = 1
    sample_count: int = 0
    seed: int = 0
    live_sets: Tuple[Tuple[Tuple[int, ...], ...], ...] = field(
        default_factory=tuple
    )

    def __post_init__(self):
        if self.kernel != KERNEL:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; sweeps run on {KERNEL!r}"
            )
        if self.source not in SOURCES:
            raise ValueError(
                f"unknown source {self.source!r}; expected one of {SOURCES}"
            )
        if self.source == "exhaustive" and self.n > 3:
            raise ValueError(
                "exhaustive enumeration is infeasible for n > 3; "
                "use source='sample'"
            )
        if self.source == "sample" and self.sample_count < 1:
            raise ValueError("sampled grids need sample_count >= 1")
        if self.source == "explicit" and not self.live_sets:
            raise ValueError("explicit grids need live_sets")
        if not self.ks or any(
            not 1 <= k <= self.n for k in self.ks
        ):
            raise ValueError("ks must be non-empty values in 1..n")

    # -- identity --------------------------------------------------------
    def digest(self) -> str:
        """The grid's content address (engine digest of its canonical doc)."""
        from ..engine.serialize import digest

        return digest(
            (
                "repro.sweep.grid",
                SWEEP_VERSION,
                self.name,
                self.n,
                self.source,
                self.ks,
                self.budget,
                self.kernel,
                self.variant,
                self.split_retries,
                self.sample_count,
                self.seed,
                self.live_sets,
            )
        )

    # -- documents -------------------------------------------------------
    def to_doc(self) -> Dict[str, Any]:
        return {
            "format": GRID_FORMAT,
            "version": SWEEP_VERSION,
            "name": self.name,
            "n": self.n,
            "source": self.source,
            "ks": list(self.ks),
            "budget": self.budget,
            "kernel": self.kernel,
            "variant": self.variant,
            "split_retries": self.split_retries,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "live_sets": [
                [list(live) for live in adversary]
                for adversary in self.live_sets
            ],
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "GridSpec":
        if doc.get("format") != GRID_FORMAT:
            raise ValueError(
                f"not a sweep grid document: format={doc.get('format')!r}"
            )
        if doc.get("version") != SWEEP_VERSION:
            raise ValueError(
                f"unsupported grid version {doc.get('version')!r}"
            )
        return cls(
            name=doc["name"],
            n=doc["n"],
            source=doc["source"],
            ks=tuple(doc["ks"]),
            budget=doc.get("budget", 20000),
            kernel=doc.get("kernel", KERNEL),
            variant=doc.get("variant", "union"),
            split_retries=doc.get("split_retries", 1),
            sample_count=doc.get("sample_count", 0),
            seed=doc.get("seed", 0),
            live_sets=tuple(
                tuple(tuple(int(p) for p in live) for live in adversary)
                for adversary in doc.get("live_sets", [])
            ),
        )

    # -- expansion -------------------------------------------------------
    def adversaries(self) -> List[Adversary]:
        """The grid's adversary axis, in canonical order."""
        if self.source == "exhaustive":
            from ..analysis.landscape import all_adversaries

            return sorted(all_adversaries(self.n), key=_adversary_sort_key)
        if self.source == "sample":
            return sample_adversaries(self.n, self.seed, self.sample_count)
        return sorted(
            (Adversary(self.n, live_sets) for live_sets in self.live_sets),
            key=_adversary_sort_key,
        )

    def cells(self) -> List["CellState"]:
        """All cells in deterministic order: adversary-major, then k."""
        expanded = []
        index = 0
        for adversary in self.adversaries():
            for k in self.ks:
                expanded.append(CellState(index=index, adversary=adversary, k=k))
                index += 1
        return expanded


@dataclass
class CellState:
    """One grid cell plus its (optional) completed record."""

    index: int
    adversary: Adversary
    k: int
    record: Optional[Dict[str, Any]] = None

    def payload(self, grid: GridSpec) -> tuple:
        return cell_payload(
            self.adversary,
            self.k,
            grid.budget,
            grid.kernel,
            grid.variant,
            grid.split_retries,
        )


def load_grid(spec: str) -> GridSpec:
    """Resolve ``--grid``: a preset name or a path to a grid JSON file."""
    if spec in GRID_PRESETS:
        return GRID_PRESETS[spec]
    path = Path(spec)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(
            f"unknown grid {spec!r}: not a preset "
            f"({', '.join(sorted(GRID_PRESETS))}) and not a readable file "
            f"({exc})"
        )
    return GridSpec.from_doc(doc)


# ----------------------------------------------------------------------
# Canonical JSON (artifact bytes)
# ----------------------------------------------------------------------
def _canon_bytes(doc: Dict[str, Any]) -> bytes:
    return (
        json.dumps(
            doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True
        )
        + "\n"
    ).encode("utf-8")


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
class SweepDriver:
    """Run a grid as ``sweep`` engine jobs over one artifact cache.

    Parameters
    ----------
    grid:
        The :class:`GridSpec` to sweep.
    checkpoint_dir:
        The root of the :class:`~repro.engine.cache.ArtifactCache` that
        holds every completed cell.  Any number of grids may share one
        directory: a cell's key is its full payload, so cells common to
        two grids are computed once.
    jobs:
        Worker processes for the driver's :class:`~repro.engine.Engine`
        (``1`` runs every cell in this process).
    """

    def __init__(self, grid: GridSpec, checkpoint_dir, jobs: int = 1):
        from ..engine.cache import ArtifactCache
        from ..engine.jobs import Engine

        self.grid = grid
        self.grid_digest = grid.digest()
        self.cache = ArtifactCache(checkpoint_dir)
        self.engine = Engine(jobs=jobs, cache=self.cache)

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Release the engine's process pool (idempotent)."""
        self.engine.close()

    def __enter__(self) -> "SweepDriver":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- the cache as checkpoint -----------------------------------------
    def _spec(self, cell: CellState):
        from ..engine.jobs import JobSpec

        return JobSpec("sweep", cell.payload(self.grid))

    def _load(self, cells: List[CellState]) -> List[CellState]:
        """Fill each cell's record from the cache; return the misses.

        A torn or corrupt entry reads as a miss, so its cell is simply
        computed again.
        """
        from ..engine.cache import MISS
        from ..engine.serialize import digest

        missing = []
        for cell in cells:
            record = self.cache.get(digest(self._spec(cell).cache_key()))
            if record is MISS:
                missing.append(cell)
            else:
                cell.record = record
        return missing

    # -- running ---------------------------------------------------------
    def run(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """Run (or continue) the sweep; return a status document.

        Cells already in the cache are ``resumed``, never recomputed.
        With ``limit`` the run computes at most that many of the rest,
        which is how tests and operators split a long sweep into bounded
        slices.  The returned document has ``complete`` plus progress
        counters; when complete it also carries the assembled
        ``artifact``.
        """
        cells = self.grid.cells()
        pending = self._load(cells)
        resumed = len(cells) - len(pending)
        if limit is not None:
            pending = pending[: max(limit, 0)]

        computed = self._run_pending(pending)

        done = sum(1 for cell in cells if cell.record is not None)
        status: Dict[str, Any] = {
            "grid": self.grid.name,
            "grid_digest": self.grid_digest,
            "cells": len(cells),
            "resumed": resumed,
            "computed": computed,
            "done": done,
            "complete": done == len(cells),
        }
        if status["complete"]:
            status["artifact"] = self.assemble_artifact(cells)
        return status

    def _run_pending(self, pending: List[CellState]) -> int:
        """Execute pending cells; the engine caches each as it completes."""
        if not pending:
            return 0
        cell_delay = float(os.environ.get(CELL_DELAY_ENV, "0") or "0")

        def on_result(result) -> None:
            if not result.ok:
                return  # raised below once the batch is over
            cell = pending[result.index]
            with obs.span(
                "sweep.cell",
                index=cell.index,
                k=cell.k,
                cache_hit=result.cache_hit,
            ):
                cell.record = result.value
            if cell_delay > 0:
                time.sleep(cell_delay)

        self.engine.progress = on_result
        with obs.span(
            "sweep.run",
            grid=self.grid.name,
            cells=len(pending),
        ):
            results = self.engine.run_jobs(
                [self._spec(cell) for cell in pending]
            )
        for result in results:
            if not result.ok:
                cell = pending[result.index]
                raise RuntimeError(
                    f"sweep cell {cell.index} (k={cell.k}) failed: "
                    f"{result.error}"
                )
        return len(pending)

    # -- artifact --------------------------------------------------------
    def assemble_artifact(
        self, cells: Optional[List[CellState]] = None
    ) -> Dict[str, Any]:
        """The canonical landscape artifact for a fully swept grid."""
        if cells is None:
            cells = self.grid.cells()
            self._load(cells)
        missing = [cell.index for cell in cells if cell.record is None]
        if missing:
            raise ValueError(
                f"cannot assemble artifact: {len(missing)} cell(s) "
                f"incomplete (first missing index {missing[0]})"
            )
        records = [cell.record for cell in cells]
        return {
            "format": ARTIFACT_FORMAT,
            "version": SWEEP_VERSION,
            "grid": self.grid.to_doc(),
            "grid_digest": self.grid_digest,
            "cells": records,
            "summary": summarize_records(records),
        }

    def write_artifact(self, path) -> bytes:
        """Assemble and write the artifact (canonical bytes); returns them."""
        data = _canon_bytes(self.assemble_artifact())
        _atomic_write(Path(path), data)
        return data


def summarize_records(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate counters over cell records (deterministic, JSON-safe)."""
    records = list(records)
    adversaries = {
        tuple(tuple(live) for live in record["live_sets"])
        for record in records
    }
    verdicts: Dict[str, int] = {
        "solvable": 0,
        "unsolvable": 0,
        "budget": 0,
        "skipped": 0,
    }
    alphas = set()
    nodes_total = 0
    for record in records:
        solve = record.get("solve")
        if solve is None:
            verdicts["skipped"] += 1
        else:
            verdicts[solve["verdict"]] += 1
            nodes_total += solve.get("nodes", 0)
        if record.get("alpha_digest"):
            alphas.add(record["alpha_digest"])
    fair_cells = sum(1 for record in records if record["fair"])
    return {
        "cells": len(records),
        "adversaries": len(adversaries),
        "fair_cells": fair_cells,
        "verdicts": verdicts,
        "distinct_alphas_fair": len(alphas),
        "solve_nodes_total": nodes_total,
    }


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------
#: Named grids: the CI smoke grid (small, fast, exercises fair +
#: unfair + budget paths) and the committed n=4 sampled landscape.
GRID_PRESETS: Dict[str, GridSpec] = {
    "n3-smoke": GridSpec(
        name="n3-smoke",
        n=3,
        source="sample",
        sample_count=6,
        seed=7,
        ks=(1, 2),
        budget=5000,
        split_retries=1,
    ),
    "n4-sampled": GridSpec(
        name="n4-sampled",
        n=4,
        source="sample",
        sample_count=24,
        seed=11,
        ks=(1, 2, 3, 4),
        budget=20000,
        split_retries=1,
    ),
}

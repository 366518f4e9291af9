"""Resumable, checkpointed sweep driver over (adversary x task) grids.

A sweep is described by a :class:`GridSpec` — a frozen dataclass whose
content-addressed digest identifies the grid exactly (process count,
adversary source, task axis, budgets, kernel).  The driver expands the
grid into deterministic cells, runs each cell as a ``sweep`` engine job
(cached, parallelizable) and persists a *checkpoint stub* — the
certify-style resume idiom — after **every** completed cell.  Kill the
process at any point, rerun with ``resume=True``, and the sweep picks
up exactly where it stopped: completed cells are loaded from their
stubs, never recomputed, and the final artifact is byte-identical to an
uninterrupted run's.

Checkpoint layout (under the checkpoint directory)::

    grid.json                      the grid document + digest
    cells/<index>-<digest12>.json  one stub per completed cell

Stubs are written atomically (temp file + ``os.replace``), so a crash
mid-write can only ever leave a whole stub or none.  Every stub records
the grid digest and its cell's payload digest; stubs from a different
grid are rejected on resume rather than silently mixed in.

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
CELL_FORMAT = "repro.sweep/cell"
ARTIFACT_FORMAT = "repro.sweep/landscape"
SWEEP_VERSION = 1

#: Valid adversary sources for a grid.
SOURCES = ("exhaustive", "sample", "explicit")

#: Seconds to pause after each checkpointed cell.  A throttle for the
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
# Canonical JSON (artifact + stub bytes)
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
    """Run a grid as engine jobs, checkpointing every completed cell.

    Parameters
    ----------
    grid:
        The :class:`GridSpec` to sweep.
    checkpoint_dir:
        Where stubs live.  A fresh sweep requires the directory to hold
        no foreign grid; resuming requires the stored grid digest to
        match (a changed grid never silently reuses stale cells).
    engine:
        An optional :class:`repro.engine.Engine`; the driver installs
        its own progress hook on it while running.  Defaults to a
        sequential engine with no cache — cell values are still
        persisted via checkpoint stubs, and a content-addressed
        :class:`~repro.engine.cache.ArtifactCache` layers on top when
        provided (cells shared between grids then never recompute).
    """

    def __init__(
        self,
        grid: GridSpec,
        checkpoint_dir,
        engine=None,
    ):
        from ..engine.jobs import Engine

        self.grid = grid
        self.grid_digest = grid.digest()
        self.root = Path(checkpoint_dir)
        self.cells_dir = self.root / "cells"
        self.engine = engine if engine is not None else Engine()
        self._payload_digests: Dict[int, str] = {}

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Release the engine's persistent worker pool (idempotent)."""
        self.engine.close()

    def __enter__(self) -> "SweepDriver":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- checkpoint plumbing ---------------------------------------------
    def _grid_path(self) -> Path:
        return self.root / "grid.json"

    def _cell_path(self, index: int, payload_digest: str) -> Path:
        return self.cells_dir / f"{index:05d}-{payload_digest[:12]}.json"

    def _write_grid_doc(self) -> None:
        doc = dict(self.grid.to_doc())
        doc["digest"] = self.grid_digest
        _atomic_write(self._grid_path(), _canon_bytes(doc))

    def _checkpoint_cell(
        self, cell: CellState, payload_digest: str
    ) -> None:
        stub = {
            "format": CELL_FORMAT,
            "version": SWEEP_VERSION,
            "grid_digest": self.grid_digest,
            "index": cell.index,
            "payload_digest": payload_digest,
            "record": cell.record,
        }
        with obs.span("sweep.checkpoint", index=cell.index):
            _atomic_write(
                self._cell_path(cell.index, payload_digest),
                _canon_bytes(stub),
            )

    def _load_stubs(self) -> Dict[int, Dict[str, Any]]:
        """Completed cell records by index, validated against this grid."""
        loaded: Dict[int, Dict[str, Any]] = {}
        if not self.cells_dir.is_dir():
            return loaded
        for path in sorted(self.cells_dir.glob("*.json")):
            try:
                stub = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue  # torn/foreign file: recompute that cell
            if (
                stub.get("format") != CELL_FORMAT
                or stub.get("version") != SWEEP_VERSION
                or stub.get("grid_digest") != self.grid_digest
            ):
                continue
            loaded[stub["index"]] = stub
        return loaded

    def checkpointed_cells(self) -> int:
        """How many cells of *this* grid already have stubs on disk."""
        return len(self._load_stubs())

    # -- running ---------------------------------------------------------
    def run(
        self,
        resume: bool = False,
        limit: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Run (or continue) the sweep; return a status document.

        With ``limit`` the run stops after at most that many *newly
        computed* cells (checkpointing each), which is how tests and
        operators split a long sweep into bounded slices.  The returned
        document has ``complete`` plus progress counters; when complete
        it also carries the assembled ``artifact``.
        """
        cells = self.grid.cells()
        existing_grid = None
        if self._grid_path().exists():
            try:
                existing_grid = json.loads(
                    self._grid_path().read_text(encoding="utf-8")
                )
            except ValueError:
                existing_grid = None
        if existing_grid is not None and existing_grid.get("digest") != (
            self.grid_digest
        ):
            raise ValueError(
                "checkpoint directory belongs to a different grid "
                f"(found {existing_grid.get('digest')!r:.20}..., expected "
                f"{self.grid_digest[:12]}...); use a fresh directory"
            )
        stubs = self._load_stubs()
        if stubs and not resume:
            raise ValueError(
                f"checkpoint directory already holds {len(stubs)} completed "
                "cell(s) for this grid; pass resume=True (CLI: --resume) to "
                "continue, or use a fresh directory"
            )
        self._write_grid_doc()

        pending: List[CellState] = []
        for cell in cells:
            stub = stubs.get(cell.index)
            if stub is not None:
                cell.record = stub["record"]
            else:
                pending.append(cell)
        if limit is not None:
            pending = pending[: max(limit, 0)]

        computed = self._run_pending(pending)

        done = sum(1 for cell in cells if cell.record is not None)
        status: Dict[str, Any] = {
            "grid": self.grid.name,
            "grid_digest": self.grid_digest,
            "cells": len(cells),
            "resumed": len(stubs),
            "computed": computed,
            "done": done,
            "complete": done == len(cells),
        }
        if status["complete"]:
            status["artifact"] = self.assemble_artifact(cells)
        return status

    def _run_pending(self, pending: List[CellState]) -> int:
        """Execute pending cells, checkpointing as each one completes."""
        from ..engine.jobs import JobSpec
        from ..engine.serialize import digest

        if not pending:
            return 0
        by_index = {cell.index: cell for cell in pending}
        specs = []
        slot_to_cell: List[CellState] = []
        for cell in pending:
            payload = cell.payload(self.grid)
            self._payload_digests[cell.index] = digest(payload)
            specs.append(JobSpec("sweep", payload))
            slot_to_cell.append(cell)

        cell_delay = float(os.environ.get(CELL_DELAY_ENV, "0") or "0")

        def on_result(result) -> None:
            cell = slot_to_cell[result.index]
            if not result.ok:
                return  # surfaced by _value below; nothing to persist
            cell.record = result.value
            with obs.span(
                "sweep.cell",
                index=cell.index,
                k=cell.k,
                cache_hit=result.cache_hit,
            ):
                self._checkpoint_cell(
                    cell, self._payload_digests[cell.index]
                )
            if cell_delay > 0:
                time.sleep(cell_delay)

        with obs.span(
            "sweep.run",
            grid=self.grid.name,
            cells=len(pending),
        ):
            previous_progress = self.engine.progress
            self.engine.progress = on_result
            try:
                results = self.engine.run_jobs(specs)
            finally:
                self.engine.progress = previous_progress
        for result in results:
            if not result.ok:
                cell = by_index[slot_to_cell[result.index].index]
                raise RuntimeError(
                    f"sweep cell {cell.index} (k={cell.k}) failed: "
                    f"{result.error}"
                )
        return len(pending)

    # -- escalation ------------------------------------------------------
    def escalate(self, escalation: int = 1) -> int:
        """Re-run every checkpointed ``budget`` cell at a doubled budget.

        Uses the ``sweep_resume`` engine job kind (content-addressed
        separately from the base cells) and overwrites the escalated
        cells' stubs.  Returns how many cells were escalated.
        """
        from ..engine.jobs import JobSpec
        from ..engine.serialize import digest

        cells = self.grid.cells()
        stubs = self._load_stubs()
        targets: List[CellState] = []
        for cell in cells:
            stub = stubs.get(cell.index)
            if stub is None:
                continue
            record = stub["record"]
            solve = record.get("solve") if isinstance(record, dict) else None
            if solve and solve.get("verdict") == "budget":
                cell.record = record
                targets.append(cell)
        if not targets:
            return 0
        specs = []
        for cell in targets:
            payload = cell.payload(self.grid) + (escalation,)
            self._payload_digests[cell.index] = digest(
                cell.payload(self.grid)
            )
            specs.append(JobSpec("sweep_resume", payload))
        results = self.engine.run_jobs(specs)
        for cell, result in zip(targets, results):
            if not result.ok:
                raise RuntimeError(
                    f"sweep escalation for cell {cell.index} failed: "
                    f"{result.error}"
                )
            cell.record = result.value
            self._checkpoint_cell(cell, self._payload_digests[cell.index])
        return len(targets)

    # -- artifact --------------------------------------------------------
    def assemble_artifact(
        self, cells: Optional[List[CellState]] = None
    ) -> Dict[str, Any]:
        """The canonical landscape artifact for a fully swept grid."""
        if cells is None:
            cells = self.grid.cells()
            stubs = self._load_stubs()
            for cell in cells:
                stub = stubs.get(cell.index)
                if stub is not None:
                    cell.record = stub["record"]
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

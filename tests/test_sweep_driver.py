"""Tests for repro.sweep.driver and the sweep engine job kind."""

import dataclasses
import json

import pytest

from repro.adversaries.adversary import Adversary
from repro.engine.cache import ArtifactCache
from repro.engine.jobs import Engine, JobSpec
from repro.engine.serialize import digest
from repro.sweep.cells import cell_payload, compute_cell
from repro.sweep.driver import (
    GRID_PRESETS,
    GridSpec,
    SweepDriver,
    load_grid,
    sample_adversaries,
)

WAIT_FREE = GridSpec(
    name="wait-free",
    n=2,
    source="explicit",
    live_sets=((((0,),), ((0,), (1,), (0, 1)))),
    ks=(1, 2),
    budget=5000,
)

SMOKE = GRID_PRESETS["n3-smoke"]


# ----------------------------------------------------------------------
# Sampler
# ----------------------------------------------------------------------
def test_sample_adversaries_is_deterministic():
    first = sample_adversaries(3, 7, 6)
    second = sample_adversaries(3, 7, 6)
    assert first == second
    assert len(first) == 6
    assert len(set(first)) == 6


def test_sample_adversaries_is_canonically_ordered():
    sample = sample_adversaries(3, 11, 8)
    keys = [
        (len(a.live_sets), sorted(sorted(live) for live in a.live_sets))
        for a in sample
    ]
    assert keys == sorted(keys)


def test_sample_adversaries_depends_on_seed():
    assert sample_adversaries(3, 1, 10) != sample_adversaries(3, 2, 10)


def test_sample_adversaries_rejects_bad_count():
    with pytest.raises(ValueError):
        sample_adversaries(2, 0, 0)
    with pytest.raises(ValueError):
        sample_adversaries(2, 0, 10**9)


def test_sample_adversaries_supports_n4():
    sample = sample_adversaries(4, 11, 24)
    assert len(sample) == 24
    assert all(a.n == 4 for a in sample)


# ----------------------------------------------------------------------
# Grid specs
# ----------------------------------------------------------------------
def test_grid_doc_round_trip_preserves_digest():
    for grid in (*GRID_PRESETS.values(), WAIT_FREE):
        clone = GridSpec.from_doc(grid.to_doc())
        assert clone == grid
        assert clone.digest() == grid.digest()


def test_grid_digest_distinguishes_fields():
    assert WAIT_FREE.digest() != dataclasses.replace(WAIT_FREE, budget=9999).digest()
    assert SMOKE.digest() != dataclasses.replace(SMOKE, seed=SMOKE.seed + 1).digest()


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(name="bad", n=3, source="nope", ks=(1,))
    with pytest.raises(ValueError):
        GridSpec(name="bad", n=4, source="exhaustive", ks=(1,))
    with pytest.raises(ValueError):
        GridSpec(name="bad", n=3, source="sample", ks=(1,), sample_count=0)
    with pytest.raises(ValueError):
        GridSpec(name="bad", n=3, source="explicit", ks=(1,))
    with pytest.raises(ValueError):
        GridSpec(name="bad", n=3, source="sample", sample_count=2, ks=(0,))


def test_grid_and_cell_reject_every_kernel_but_bitset():
    # Records promise the reference tree's node counts, which only the
    # bitset kernel walks; "fc" and "legacy" are no longer solve kernels.
    assert SMOKE.kernel == "bitset"
    doc = SMOKE.to_doc()
    wait_free = Adversary(2, [(0, 1)])
    for kernel in ("fc", "legacy", "symmetry"):
        with pytest.raises(ValueError, match="unknown kernel"):
            GridSpec(
                name="bad", n=3, source="sample", sample_count=2, ks=(1,),
                kernel=kernel,
            )
        with pytest.raises(ValueError, match="unknown kernel"):
            GridSpec.from_doc({**doc, "kernel": kernel})
        with pytest.raises(ValueError, match="unknown kernel"):
            compute_cell(cell_payload(wait_free, 1, 1000, kernel, "union", 1))


def test_cells_are_deterministically_ordered():
    cells = SMOKE.cells()
    assert [cell.index for cell in cells] == list(range(len(cells)))
    assert cells[0].k <= cells[1].k  # k-minor within one adversary
    again = SMOKE.cells()
    assert [(c.adversary, c.k) for c in cells] == [
        (c.adversary, c.k) for c in again
    ]


def test_load_grid_resolves_presets_and_files(tmp_path):
    assert load_grid("n3-smoke") == SMOKE
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(WAIT_FREE.to_doc()))
    assert load_grid(str(path)) == WAIT_FREE
    with pytest.raises(ValueError):
        load_grid("no-such-grid")


# ----------------------------------------------------------------------
# Cells as engine jobs
# ----------------------------------------------------------------------
def test_compute_cell_unfair_short_circuits():
    unfair = Adversary(2, [[0]])  # not superset-closed around liveness
    record = compute_cell(cell_payload(unfair, 1, 1000, "bitset", "union", 1))
    assert record["solve"] is None or record["fair"]


def test_compute_cell_fair_records_solve():
    wait_free = Adversary(2, [[0], [1], [0, 1]])
    record = compute_cell(cell_payload(wait_free, 2, 5000, "bitset", "union", 1))
    assert record["fair"]
    assert record["ra"]["facets"] > 0
    assert record["solve"]["verdict"] in {"solvable", "unsolvable", "budget"}
    assert record["solve"]["nodes"] >= 0
    json.dumps(record)  # JSON-safe end to end


def test_compute_cell_budget_verdict_is_honest():
    wait_free = Adversary(3, [[0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]])
    record = compute_cell(cell_payload(wait_free, 1, 1, "bitset", "union", 0))
    assert record["solve"]["verdict"] == "budget"
    assert record["solve"]["budget"] == 1


def test_sweep_job_kind_is_cacheable(tmp_path):
    engine = Engine(cache=ArtifactCache(tmp_path))
    payload = cell_payload(Adversary(2, [[0], [1], [0, 1]]), 2, 5000, "bitset", "union", 1)
    (cold,) = engine.run_jobs([JobSpec("sweep", payload)])
    (warm,) = engine.run_jobs([JobSpec("sweep", payload)])
    assert not cold.cache_hit and warm.cache_hit
    assert cold.value == warm.value


# ----------------------------------------------------------------------
# Driver: the artifact cache as checkpoint, limits, artifact
# ----------------------------------------------------------------------
def _cell_key(grid, cell):
    return digest(JobSpec("sweep", cell.payload(grid)).cache_key())


def test_fresh_run_completes_and_checkpoints(tmp_path):
    driver = SweepDriver(WAIT_FREE, tmp_path / "ckpt")
    status = driver.run()
    assert status["complete"]
    assert status["computed"] == len(WAIT_FREE.cells())
    cache = ArtifactCache(tmp_path / "ckpt")
    assert len(cache) == status["cells"]
    for cell, record in zip(WAIT_FREE.cells(), status["artifact"]["cells"]):
        assert cache.get(_cell_key(WAIT_FREE, cell)) == record


def test_limit_bounds_new_computation(tmp_path):
    driver = SweepDriver(SMOKE, tmp_path / "ckpt")
    partial = driver.run(limit=3)
    assert not partial["complete"]
    assert partial["computed"] == 3
    assert len(ArtifactCache(tmp_path / "ckpt")) == 3


def test_resume_skips_checkpointed_cells(tmp_path):
    SweepDriver(SMOKE, tmp_path / "ckpt").run(limit=3)
    resumed = SweepDriver(SMOKE, tmp_path / "ckpt").run()
    assert resumed["complete"]
    assert resumed["resumed"] == 3
    assert resumed["computed"] == len(SMOKE.cells()) - 3


def test_resumed_artifact_is_byte_identical(tmp_path):
    straight = SweepDriver(SMOKE, tmp_path / "a")
    straight.run()
    interrupted = SweepDriver(SMOKE, tmp_path / "b")
    interrupted.run(limit=2)
    SweepDriver(SMOKE, tmp_path / "b").run()
    a = straight.write_artifact(tmp_path / "a.json")
    b = SweepDriver(SMOKE, tmp_path / "b").write_artifact(tmp_path / "b.json")
    assert a == b


def test_completed_rerun_computes_nothing_and_writes_identical_bytes(tmp_path):
    first = SweepDriver(SMOKE, tmp_path / "ckpt")
    first.run()
    before = first.write_artifact(tmp_path / "first.json")
    again = SweepDriver(SMOKE, tmp_path / "ckpt")
    status = again.run()
    assert status["complete"]
    assert status["computed"] == 0
    assert status["resumed"] == len(SMOKE.cells())
    assert again.write_artifact(tmp_path / "again.json") == before


def test_torn_stub_is_recomputed_not_fatal(tmp_path):
    SweepDriver(SMOKE, tmp_path / "ckpt").run(limit=2)
    cache = ArtifactCache(tmp_path / "ckpt")
    first = SMOKE.cells()[0]
    path = cache._path(_cell_key(SMOKE, first))
    path.write_text("{ torn", encoding="utf-8")
    status = SweepDriver(SMOKE, tmp_path / "ckpt").run()
    assert status["complete"]
    assert status["resumed"] == 1
    assert status["computed"] == len(SMOKE.cells()) - 1
    # The recomputation repaired the corrupt entry in place.
    assert cache.get(_cell_key(SMOKE, first)) == status["artifact"]["cells"][0]


def test_artifact_requires_completion(tmp_path):
    driver = SweepDriver(SMOKE, tmp_path / "ckpt")
    driver.run(limit=1)
    with pytest.raises(ValueError, match="incomplete"):
        SweepDriver(SMOKE, tmp_path / "ckpt").assemble_artifact()


def test_artifact_shape_and_summary(tmp_path):
    driver = SweepDriver(WAIT_FREE, tmp_path / "ckpt")
    status = driver.run()
    artifact = status["artifact"]
    assert artifact["format"] == "repro.sweep/landscape"
    assert artifact["grid_digest"] == WAIT_FREE.digest()
    assert len(artifact["cells"]) == len(WAIT_FREE.cells())
    summary = artifact["summary"]
    assert summary["cells"] == len(WAIT_FREE.cells())
    assert summary["adversaries"] == 2
    assert sum(summary["verdicts"].values()) == summary["cells"]


def test_driver_rides_the_artifact_cache(tmp_path):
    # Two grids in one directory: the second computes only the cells
    # the first did not, and each artifact matches its straight run.
    wider = dataclasses.replace(
        WAIT_FREE,
        name="wider",
        live_sets=WAIT_FREE.live_sets + (((1,), (0, 1)),),
    )
    shared = SweepDriver(WAIT_FREE, tmp_path / "shared")
    assert shared.run()["computed"] == len(WAIT_FREE.cells())
    status = SweepDriver(wider, tmp_path / "shared").run()
    assert status["complete"]
    assert status["resumed"] == len(WAIT_FREE.cells())
    assert status["computed"] == len(wider.cells()) - len(WAIT_FREE.cells())
    assert len(ArtifactCache(tmp_path / "shared")) == len(wider.cells())
    for grid in (WAIT_FREE, wider):
        SweepDriver(grid, tmp_path / grid.name).run()
        straight = SweepDriver(grid, tmp_path / grid.name).write_artifact(
            tmp_path / f"{grid.name}.json"
        )
        assert SweepDriver(grid, tmp_path / "shared").write_artifact(
            tmp_path / f"{grid.name}-shared.json"
        ) == straight

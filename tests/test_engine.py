"""The compute engine: cache, executor, split-retry, and equivalence.

The load-bearing guarantee is at the bottom: the Figure-2 zoo
classification and a FACT solvability query produce *equal* outputs
through the engine (``jobs=2``, warm cache) and through the legacy
sequential code path.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.adversaries import (
    agreement_function_of,
    build_catalogue,
    is_fair,
    setcon,
)
from repro.analysis.landscape import (
    LandscapeEntry,
    all_adversaries,
    alpha_signature,
    classify_all,
    summarize,
)
from repro.engine import (
    MISS,
    ArtifactCache,
    Engine,
    JobSpec,
    NullCache,
    digest,
)
from repro.engine.jobs import JOB_KINDS
from repro.runtime.algorithm1 import fuzz_algorithm1
from repro.tasks.set_consensus import set_consensus_task
from repro.tasks.solvability import (
    MapSearch,
    SearchBudgetExceeded,
    split_search_domains,
)
from repro.topology import chr_complex


@pytest.fixture
def task23():
    return set_consensus_task(3, 2)


# ----------------------------------------------------------------------
# Artifact cache
# ----------------------------------------------------------------------
def test_cache_round_trip_and_hit(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = digest(("test-key", 1))
    assert cache.get(key) is MISS
    cache.put(key, chr_complex(3, 1))
    value = cache.get(key)
    assert value == chr_complex(3, 1)
    assert cache.hits == 1 and cache.misses == 1
    assert len(cache) == 1


def test_cache_survives_corrupt_entries(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = digest("corruptible")
    cache.put(key, (1, 2, 3))
    cache._path(key).write_text("{not json", encoding="utf-8")
    assert cache.get(key) is MISS
    cache.put(key, (1, 2, 3))
    assert cache.get(key) == (1, 2, 3)


def test_cache_objects_are_visible_to_every_instance_on_the_root(tmp_path):
    writer = ArtifactCache(tmp_path)
    key = digest("shared-root")
    writer.put(key, chr_complex(3, 1))
    # A second instance (another process, in practice) reads the object.
    assert ArtifactCache(tmp_path).get(key) == chr_complex(3, 1)
    # With the object gone from disk, every instance misses.
    writer._path(key).unlink()
    assert ArtifactCache(tmp_path).get(key) is MISS
    assert writer.get(key) is MISS


def test_cache_clear_removes_every_artifact(tmp_path):
    cache = ArtifactCache(tmp_path)
    keys = [digest(("cleared", i)) for i in range(3)]
    for index, key in enumerate(keys):
        cache.put(key, (index,))
    assert cache.clear() == 3
    assert len(cache) == 0
    assert all(cache.get(key) is MISS for key in keys)
    cache.put(keys[0], (0,))
    assert cache.get(keys[0]) == (0,)


def test_engine_second_call_hits_cache(tmp_path, ra_1res, task23):
    first = Engine(cache=ArtifactCache(tmp_path))
    mapping, nodes = first.solve_many([(ra_1res, task23, None)])[0]
    assert first.stats() == {"hits": 0, "misses": 1, "deduped": 0}

    second = Engine(cache=ArtifactCache(tmp_path))
    mapping_again, nodes_again = second.solve_many([(ra_1res, task23, None)])[0]
    assert second.stats() == {"hits": 1, "misses": 0, "deduped": 0}
    assert mapping_again == mapping
    assert nodes_again == nodes


def test_null_cache_never_stores(ra_1of, task23):
    engine = Engine(cache=NullCache())
    engine.solve_many([(ra_1of, task23, None)])
    engine.solve_many([(ra_1of, task23, None)])
    assert engine.stats()["hits"] == 0
    assert len(engine.cache) == 0


# ----------------------------------------------------------------------
# Determinism and the sequential default path
# ----------------------------------------------------------------------
def test_map_search_node_count_is_reproducible(ra_1res, task23):
    counts = set()
    mappings = []
    for _ in range(3):
        search = MapSearch(ra_1res, task23)
        mappings.append(search.search())
        counts.add(search.nodes_explored)
    assert len(counts) == 1
    assert mappings[0] == mappings[1] == mappings[2]


def test_engine_sequential_matches_direct_search(ra_1res, task23):
    reference = MapSearch(ra_1res, task23)
    expected = reference.search()
    mapping, nodes = Engine(jobs=1).solve_many([(ra_1res, task23, None)])[0]
    assert mapping == expected
    assert nodes == reference.nodes_explored


def test_engine_pool_matches_sequential(ra_1of, ra_1res, task23):
    queries = [(ra_1of, task23, None), (ra_1res, task23, None)]
    sequential = Engine(jobs=1).solve_many(queries)
    pooled = Engine(jobs=2).solve_many(queries)
    assert pooled == sequential


# ----------------------------------------------------------------------
# Budget handling and split-retry
# ----------------------------------------------------------------------
def test_budget_exception_carries_state(ra_1res, task23):
    with pytest.raises(SearchBudgetExceeded) as info:
        MapSearch(ra_1res, task23).search(budget=20)
    assert info.value.nodes_explored == 21
    assert 0 < len(info.value.partial_assignment) <= 21


def test_split_domains_cover_the_space(ra_1res, task23):
    splits = split_search_domains(ra_1res, task23, parts=2)
    assert len(splits) == 2
    (vertex,) = set(splits[0]) & set(splits[1])
    full_domain = MapSearch(ra_1res, task23).domains[vertex]
    assert list(splits[0][vertex]) + list(splits[1][vertex]) == full_domain


def test_split_retry_recovers_the_exact_mapping(ra_1res, task23):
    reference = MapSearch(ra_1res, task23)
    expected = reference.search()
    # A budget below the full search's node count forces the retry.
    budget = reference.nodes_explored // 2
    engine = Engine(jobs=1, split_retries=6)
    mapping, nodes = engine.solve_many([(ra_1res, task23, budget)])[0]
    assert mapping == expected
    assert nodes > budget


def test_pooled_split_retry_matches_in_process(ra_1res, task23):
    # The retry's slices run as one pooled sub-batch; however they
    # complete, they are read in slice order, as in-process.
    reference = MapSearch(ra_1res, task23)
    reference.search()
    query = (ra_1res, task23, reference.nodes_explored // 2)
    sequential = Engine(jobs=1, split_retries=6).solve_many([query])
    with Engine(jobs=2, split_retries=6) as engine:
        pooled = engine.solve_many([query])
    assert pooled == sequential


def test_split_retry_decides_unsolvable_instances(ra_1res):
    consensus = set_consensus_task(3, 1)
    reference = MapSearch(ra_1res, consensus)
    assert reference.search() is None
    engine = Engine(jobs=1, split_retries=8)
    budget = reference.nodes_explored // 3
    mapping, _ = engine.solve_many([(ra_1res, consensus, budget)])[0]
    assert mapping is None


def test_exhausted_retries_surface_the_budget_error(ra_1res, task23):
    engine = Engine(jobs=1, split_retries=1)
    with pytest.raises(SearchBudgetExceeded) as info:
        engine.solve_many([(ra_1res, task23, 3)])
    assert info.value.nodes_explored > 3


# ----------------------------------------------------------------------
# Typed batches
# ----------------------------------------------------------------------
def test_chr_job_matches_direct_construction():
    (result,) = Engine().run_jobs([JobSpec("chr", (3, 1))])
    assert result.ok and result.value == chr_complex(3, 1)


def test_minimal_set_consensus_table(ra_1of, ra_2of, ra_1res):
    engine = Engine(jobs=1)
    assert engine.minimal_set_consensus_many([ra_1of, ra_2of, ra_1res]) == [
        1,
        2,
        2,
    ]


def test_fuzz_many_is_worker_count_independent(alpha_1res, ra_1res):
    sequential = Engine(jobs=1).fuzz_many(alpha_1res, ra_1res, 4, seed=11)
    with Engine(jobs=2) as engine:
        pooled = engine.fuzz_many(alpha_1res, ra_1res, 4, seed=11)
    assert pooled == sequential
    assert all(in_task for in_task, _ in sequential)
    # The library fuzzer explores the same schedules for the same seed.
    library = fuzz_algorithm1(alpha_1res, ra_1res, runs=4, seed=11)
    assert sequential == [
        (outcome.in_affine_task, outcome.result.steps_taken)
        for outcome in library
    ]


def test_progress_callback_sees_every_job(ra_1of, ra_1res, task23):
    seen = []
    engine = Engine(jobs=1, progress=seen.append)
    engine.solve_many([(ra_1of, task23, None), (ra_1res, task23, None)])
    assert sorted(result.index for result in seen) == [0, 1]


def _wait_for(payload: tuple) -> bool:
    # True once ``path`` exists, False if ``seconds`` pass first.
    path, seconds = payload
    deadline = time.monotonic() + seconds
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.mark.parametrize("jobs", [1, 2])
def test_progress_hook_runs_as_each_job_completes(jobs, monkeypatch, tmp_path):
    # Job 1 waits for the file job 0's progress hook writes: it only
    # sees it if the hook runs before the batch has finished.
    monkeypatch.setitem(JOB_KINDS, "wait_for", _wait_for)
    flag = tmp_path / "job0-finished"

    def hook(result):
        if result.index == 0:
            flag.touch()

    with Engine(jobs=jobs, progress=hook) as engine:
        first, second = engine.run_jobs(
            [JobSpec("chr", (2, 1)), JobSpec("wait_for", (str(flag), 5.0))]
        )
    assert first.ok and second.ok
    assert second.value is True


def test_bad_job_surfaces_as_runtime_error():
    engine = Engine(jobs=1)
    (result,) = engine.run_jobs([JobSpec("chr", (3, "not-a-depth"))])
    assert not result.ok
    with pytest.raises(RuntimeError):
        engine._value(result)


# ----------------------------------------------------------------------
# Engine vs legacy equivalence (the acceptance test)
# ----------------------------------------------------------------------
def test_zoo_and_fact_equal_via_engine_and_legacy(tmp_path, ra_1res, task23):
    """Figure-2 classification + one FACT query: engine == legacy.

    The engine runs with ``jobs=2`` against a warm cache; the legacy
    path is plain in-process calls.  Both must produce equal outputs.
    """
    zoo = [entry.adversary for entry in build_catalogue(3)]

    legacy_entries = [
        LandscapeEntry(
            adversary=adversary,
            fair=is_fair(adversary),
            superset_closed=adversary.is_superset_closed(),
            symmetric=adversary.is_symmetric(),
            power=setcon(adversary),
            alpha_key=alpha_signature(agreement_function_of(adversary)),
        )
        for adversary in zoo
    ]
    legacy_mapping = MapSearch(ra_1res, task23).search()

    cache = ArtifactCache(tmp_path)
    Engine(jobs=2, cache=cache).classify_many(zoo)  # cold fill
    warm = Engine(jobs=2, cache=ArtifactCache(tmp_path))
    engine_entries = warm.classify_many(zoo)
    engine_mapping = warm.solve(ra_1res, task23)
    warm.solve(ra_1res, task23)

    assert engine_entries == legacy_entries
    assert engine_mapping == legacy_mapping
    stats = warm.stats()
    assert stats["hits"] >= len(zoo) + 1


def test_landscape_classify_all_engine_equals_legacy():
    """The landscape helpers, default or pooled, equal direct calls."""
    legacy = [
        LandscapeEntry(
            adversary=adversary,
            fair=is_fair(adversary),
            superset_closed=adversary.is_superset_closed(),
            symmetric=adversary.is_symmetric(),
            power=setcon(adversary),
            alpha_key=alpha_signature(agreement_function_of(adversary)),
        )
        for adversary in all_adversaries(3)
    ]
    with Engine(jobs=2) as pooled:
        assert classify_all(3) == classify_all(3, engine=pooled) == legacy
        assert summarize(legacy, engine=pooled) == summarize(legacy)


# ----------------------------------------------------------------------
# Failure paths surfaced by serving: corruption, propagation
# ----------------------------------------------------------------------
def test_truncated_cache_entry_recomputes_and_repairs(tmp_path):
    spec = JobSpec("chr", (3, 1))
    cache = ArtifactCache(tmp_path)
    (first,) = Engine(cache=cache).run_jobs([spec])
    path = cache._path(digest(spec.cache_key()))
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) // 2], encoding="utf-8")  # torn write

    (recovered,) = Engine(cache=ArtifactCache(tmp_path)).run_jobs([spec])
    assert recovered.ok and not recovered.cache_hit
    assert recovered.value == first.value
    # The recomputation repaired the stored artifact in place.
    (warm,) = Engine(cache=ArtifactCache(tmp_path)).run_jobs([spec])
    assert warm.cache_hit and warm.value == first.value


def test_empty_cache_entry_is_a_miss(tmp_path):
    spec = JobSpec("chr", (2, 1))
    cache = ArtifactCache(tmp_path)
    Engine(cache=cache).run_jobs([spec])
    cache._path(digest(spec.cache_key())).write_text("", encoding="utf-8")
    (result,) = Engine(cache=ArtifactCache(tmp_path)).run_jobs([spec])
    assert result.ok and not result.cache_hit


def test_error_results_propagate_in_order_and_are_not_cached(tmp_path):
    cache = ArtifactCache(tmp_path)
    engine = Engine(cache=cache)
    results = engine.run_jobs(
        [JobSpec("chr", (3, 1)), JobSpec("chr", (3, "not-a-depth"))]
    )
    assert results[0].ok and results[0].index == 0
    assert not results[1].ok and results[1].index == 1
    assert "Traceback" in results[1].error
    assert len(cache) == 1  # only the good artifact was stored


# ----------------------------------------------------------------------
# Batch-level dedup
# ----------------------------------------------------------------------
def test_run_jobs_computes_identical_specs_once(tmp_path):
    spec = JobSpec("chr", (3, 1))
    cache = ArtifactCache(tmp_path)
    seen = []
    engine = Engine(cache=cache, progress=seen.append)
    results = engine.run_jobs([spec, JobSpec("chr", (2, 1)), spec, spec])
    assert [result.index for result in results] == [0, 1, 2, 3]
    assert results[0].value == results[2].value == results[3].value
    assert [result.coalesced for result in results] == [
        False,
        False,
        True,
        True,
    ]
    assert engine.stats()["deduped"] == 2
    assert len(cache) == 2  # one artifact per distinct spec
    assert sorted(result.index for result in seen) == [0, 1, 2, 3]


def test_lone_spec_without_a_storing_cache_is_not_digested(
    monkeypatch, ra_1res, task23
):
    """A key that feeds no cache and no dedup is never computed, yet
    the miss is still counted and a pair of specs still coalesces."""
    from repro.engine import jobs

    def refuse(obj):
        raise AssertionError("digest computed for a lone uncached spec")

    with monkeypatch.context() as patch:
        patch.setattr(jobs, "digest", refuse)
        engine = Engine()
        ((mapping, nodes),) = engine.solve_many([(ra_1res, task23, None)])
    assert mapping is not None and nodes > 0
    assert engine.stats() == {"hits": 0, "misses": 1, "deduped": 0}
    pair = Engine().run_jobs([JobSpec("chr", (3, 1))] * 2)
    assert [result.coalesced for result in pair] == [False, True]


def test_dedup_fans_out_error_results_too():
    bad = JobSpec("chr", (3, "not-a-depth"))
    results = Engine().run_jobs([bad, bad])
    assert not results[0].ok and not results[1].ok
    assert results[1].coalesced
    assert results[0].error == results[1].error


def test_dedup_matches_no_dedup_values(ra_1res, task23):
    queries = [(ra_1res, task23, None)] * 3
    deduped = Engine().solve_many(queries)
    assert deduped[0] == deduped[1] == deduped[2]
    assert deduped[0] == Engine().solve_many(queries[:1])[0]


# ----------------------------------------------------------------------
# Cache directory configuration
# ----------------------------------------------------------------------
def test_repro_cache_dir_env_var_controls_the_default(monkeypatch, tmp_path):
    from repro.engine import default_cache_dir

    target = tmp_path / "deploy-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(target))
    assert default_cache_dir() == target
    cache = ArtifactCache()
    assert cache.root == target
    cache.put(digest("env-dir-artifact"), (1, 2))
    assert (target / "objects").is_dir()

    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert default_cache_dir() == Path.home() / ".cache" / "repro-engine"

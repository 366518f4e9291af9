"""Tests for the differential oracle, its grid, and engine/CLI wiring."""

import json

import pytest

from repro.adversaries.catalogue import catalogue_by_name
from repro.engine import Engine, JobSpec
from repro.sim import (
    ARTIFACT_VERSION,
    STANDARD_GRID,
    grid_case,
    load_artifact,
    oracle_params,
    replay,
    simulate_params,
    standard_grid,
    write_artifact,
)
from repro.sim import oracle as oracle_module


# ----------------------------------------------------------------------
# Reports and determinism
# ----------------------------------------------------------------------
def test_simulate_params_report_shape():
    adversary = catalogue_by_name(3)["1-resilient"]
    report = simulate_params(adversary, 2, 2, seed=5)
    assert report["n"] == 3 and report["k"] == 2
    assert report["schedules"] > report["plans"] > 0
    assert report["pass"] is True
    assert report["first_violation"] is None


def test_simulate_params_is_deterministic():
    adversary = catalogue_by_name(3)["figure-5b"]
    first = simulate_params(adversary, 1, 3, seed=11)
    second = simulate_params(adversary, 1, 3, seed=11)
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )


def test_oracle_params_crash_side_agrees_both_ways():
    adversary = catalogue_by_name(3)["1-resilient"]
    solvable = oracle_params(adversary, 2, 2, seed=5)
    assert solvable["reference"] == {"method": "fact", "solvable": True}
    assert solvable["agree"] and solvable["artifact"] is None
    unsolvable = oracle_params(adversary, 1, 2, seed=5)
    assert unsolvable["reference"]["solvable"] is False
    assert not unsolvable["sim"]["pass"]
    assert unsolvable["agree"]


# ----------------------------------------------------------------------
# The committed grid
# ----------------------------------------------------------------------
def test_standard_grid_spans_both_regimes():
    """The grid holds both FACT-solvable and FACT-unsolvable cases."""
    from repro.adversaries import setcon

    grid = standard_grid()
    assert len(grid) == 9
    solvable = [case for case in grid if setcon(case.adversary) <= case.k]
    unsolvable = [case for case in grid if setcon(case.adversary) > case.k]
    assert len(solvable) >= 4 and len(unsolvable) >= 4
    names = [case.name for case in grid]
    assert len(names) == len(set(names))
    assert tuple(grid) == STANDARD_GRID


def test_grid_case_lookup_and_error():
    case = grid_case("ksc-figure-5b-k2")
    assert case.k == 2 and case.adversary.n == 3
    with pytest.raises(KeyError, match="known cases"):
        grid_case("no-such-case")


def test_whole_grid_agrees():
    """The acceptance gate: every committed (adversary, k) pair
    agrees between the simulator and its reference verdict."""
    for case in standard_grid():
        report = oracle_params(*case.payload())
        assert report["agree"], (
            case.name,
            report["reference"],
            report["sim"]["violations"],
        )


# ----------------------------------------------------------------------
# Disagreement artifacts and replay
# ----------------------------------------------------------------------
def test_doctored_disagreement_emits_a_replayable_artifact(
    tmp_path, monkeypatch
):
    # Doctor the reference: make FACT claim wait-free consensus is
    # solvable.  The simulator's live-set deadlock then *disagrees*, and
    # the violating schedule must come back as a replayable artifact.
    class Solvable:
        solvable = True

    monkeypatch.setattr(oracle_module, "run_request", lambda request: Solvable)
    adversary = catalogue_by_name(3)["wait-free"]
    report = oracle_params(adversary, 1, 2, seed=5)
    assert not report["agree"]
    artifact = report["artifact"]
    assert artifact is not None
    assert artifact["version"] == ARTIFACT_VERSION == 2
    assert "protocol" not in artifact and "t" not in artifact
    assert artifact["violations"]

    path = tmp_path / "disagreement.json"
    write_artifact(str(path), artifact)
    loaded = load_artifact(str(path))
    assert loaded == artifact

    outcome = replay(loaded)
    assert outcome["decisions"] == artifact["decisions"]
    assert outcome["blocked"] == artifact["blocked"]
    assert outcome["violations"] == artifact["violations"]


def test_replay_rejects_unknown_versions():
    with pytest.raises(ValueError, match="version"):
        replay({"version": 999})
    # A version 1 artifact also named a protocol and a fault budget t.
    adversary = catalogue_by_name(3)["wait-free"]
    artifact = dict(simulate_params(adversary, 1, 2, seed=5)["first_violation"])
    artifact.update(version=1, protocol="hitting-set-consensus", t=0)
    with pytest.raises(ValueError, match="unsupported artifact version 1"):
        replay(artifact)


def test_crash_side_artifact_replays(tmp_path):
    adversary = catalogue_by_name(3)["wait-free"]
    report = simulate_params(adversary, 1, 2, seed=5)
    artifact = report["first_violation"]
    assert artifact is not None
    assert artifact["adversary"] is not None
    outcome = replay(artifact)
    assert outcome["violations"] == artifact["violations"]


# ----------------------------------------------------------------------
# Engine wiring
# ----------------------------------------------------------------------
def test_engine_simulate_is_cached(tmp_path):
    from repro.engine import ArtifactCache

    adversary = catalogue_by_name(3)["1-resilient"]
    engine = Engine(cache=ArtifactCache(tmp_path))
    first = engine.simulate(adversary, k=2, schedules=2)
    assert first["pass"]
    again = Engine(cache=ArtifactCache(tmp_path))
    spec = JobSpec("simulate", (adversary, 2, 2, 7))
    (result,) = again.run_jobs([spec])
    assert result.cache_hit
    assert result.value == first


def test_engine_oracle_many_matches_direct_calls():
    cases = [grid_case("ksc-figure-5b-k2"), grid_case("ksc-wait-free-k1")]
    engine = Engine()
    reports = engine.oracle_many([case.payload() for case in cases])
    for case, report in zip(cases, reports):
        assert report == oracle_params(*case.payload())


def test_engine_simulate_many():
    # A batch of simulate jobs through one engine call.
    engine = Engine()
    cases = [grid_case("ksc-figure-5b-k2"), grid_case("ksc-wait-free-k1")]
    results = engine.run_jobs(
        [JobSpec("simulate", case.payload()) for case in cases]
    )
    assert all(result.ok for result in results)
    assert results[0].value["pass"] and not results[1].value["pass"]


def test_simulate_payload_serialization_round_trips():
    from repro.engine import deserialize, serialize

    adversary = catalogue_by_name(3)["figure-5b"]
    payload = (adversary, 1, 2, 7)
    assert deserialize(json.loads(json.dumps(serialize(payload)))) == payload

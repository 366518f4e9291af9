"""tools/bench_gate.py — the benchmark trajectory gate.

The gate is CI's last line against silent performance regressions, so
its own failure modes are tested here: it must pass when fresh numbers
match the baselines, fail loudly on a doctored regression, on parity
drift, and on a benchmark that silently did not run — and it must pass
against this repository's real committed baselines.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
GATE_PATH = REPO_ROOT / "tools" / "bench_gate.py"

spec = importlib.util.spec_from_file_location("bench_gate", GATE_PATH)
bench_gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_gate)

#: A minimal, internally consistent baseline set covering every rule.
BASELINES = {
    "BENCH_solver.json": {
        "workload": {"queries": 15, "solvable": 11, "search_nodes_total": 2052},
        "median_speedup_warm": 100.0,
        "median_speedup_cold": 1.0,
    },
    "BENCH_engine.json": {
        "workload": {"adversaries_classified": 9, "solvability_queries": 15},
        "artifacts_cached": 142,
        "speedup_warm_cache": 20.0,
        "speedup_multiworker_cold": None,
        "saturation": {"speedup_jobs2": None},
    },
    "BENCH_landscape.json": {
        "workload": {"grid_cells": 12, "adversaries": 6},
        "verdicts": {"solvable": 1, "unsolvable": 1, "budget": 0},
        "resume": {"recomputed_cells": 0},
        "resume_overhead_ratio": 1.1,
        "ra_speedup_vs_definition": 6.0,
        "ra_facets_total": 4423,
    },
    "BENCH_service.json": {
        "requests_total": 488,
        "errors": 0,
        "burst": {"engine_computations": 1},
        "memcache_hit_rate": 0.94,
        "coalesce_rate": 0.35,
        "codec": {"serialize_vs_json_ratio": 3.1},
    },
    "BENCH_certify.json": {
        "workload": {"queries": 15, "solvable": 11, "unsolvable": 4},
        "certify_overhead_ratio": 1.4,
        "check_positive_speedup_vs_search": 2.4,
        "check_negative_ratio_vs_search": 0.9,
    },
    "BENCH_obs.json": {
        "workload": {"queries": 15},
        "spans_per_batch": 32,
        "traced_overhead_ratio": 1.0,
        "sim": {
            "span_sim_schedule": 30,
            "span_sim_round": 30,
            "span_sim_guard_wait": 90,
            "traced_overhead_ratio": 1.2,
        },
    },
    "BENCH_sim.json": {
        "workload": {"cases": 15, "schedules_total": 952},
        "deliveries_total": 10617,
        "oracle_agreement_rate": 1.0,
        "disagreements": 0,
    },
    "BENCH_size.json": {
        "packages": {
            path.split(".", 1)[1]: 1000
            for path, _, _ in bench_gate.RULES["BENCH_size.json"]
            if path.startswith("packages.")
        },
        "top_level": 1000,
        "src_lines_total": 16000,
    },
}


def _write_all(directory: Path, data=BASELINES):
    directory.mkdir(parents=True, exist_ok=True)
    for name, content in data.items():
        (directory / name).write_text(json.dumps(content), encoding="utf-8")


@pytest.fixture()
def dirs(tmp_path):
    baseline = tmp_path / "baseline"
    fresh = tmp_path / "fresh"
    _write_all(baseline)
    _write_all(fresh)
    return baseline, fresh


def _run(baseline: Path, fresh: Path) -> int:
    return bench_gate.main(
        ["--baseline-dir", str(baseline), "--fresh-dir", str(fresh)]
    )


def _doctor(fresh: Path, name: str, **changes):
    path = fresh / name
    data = json.loads(path.read_text())
    data.update(changes)
    path.write_text(json.dumps(data), encoding="utf-8")


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------
def test_identical_results_pass(dirs, capsys):
    baseline, fresh = dirs
    assert _run(baseline, fresh) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == len(BASELINES)


def test_improvement_passes(dirs):
    baseline, fresh = dirs
    _doctor(fresh, "BENCH_solver.json", median_speedup_warm=200.0)
    _doctor(fresh, "BENCH_obs.json", traced_overhead_ratio=0.9)
    assert _run(baseline, fresh) == 0


def test_regressed_warm_speedup_fails(dirs, capsys):
    baseline, fresh = dirs
    # 50% of baseline: beyond the 25%-drop tolerance for warm speedups.
    _doctor(fresh, "BENCH_solver.json", median_speedup_warm=50.0)
    assert _run(baseline, fresh) == 1
    out = capsys.readouterr().out
    assert "FAIL BENCH_solver.json" in out
    assert "median_speedup_warm" in out
    assert "dropped 50.0%" in out
    assert "re-baselining" in out  # the remedy ships with the failure


def test_within_tolerance_drop_passes(dirs):
    baseline, fresh = dirs
    # A 20% drop stays inside the 0.75 floor.
    _doctor(fresh, "BENCH_solver.json", median_speedup_warm=80.0)
    assert _run(baseline, fresh) == 0


def test_parity_drift_fails(dirs, capsys):
    baseline, fresh = dirs
    data = json.loads((fresh / "BENCH_solver.json").read_text())
    data["workload"]["search_nodes_total"] += 1
    (fresh / "BENCH_solver.json").write_text(json.dumps(data))
    assert _run(baseline, fresh) == 1
    out = capsys.readouterr().out
    assert "workload.search_nodes_total" in out
    assert "parity metric" in out


def test_overhead_ratio_growth_fails(dirs, capsys):
    baseline, fresh = dirs
    # Ceiling is 3.0 x baseline 1.0; 3.5 breaches it.
    _doctor(fresh, "BENCH_obs.json", traced_overhead_ratio=3.5)
    assert _run(baseline, fresh) == 1
    assert "traced_overhead_ratio" in capsys.readouterr().out


def test_missing_fresh_file_fails(dirs, capsys):
    baseline, fresh = dirs
    (fresh / "BENCH_service.json").unlink()
    assert _run(baseline, fresh) == 1
    assert "benchmark did not run" in capsys.readouterr().out


def test_missing_metric_fails(dirs, capsys):
    baseline, fresh = dirs
    data = json.loads((fresh / "BENCH_engine.json").read_text())
    del data["speedup_warm_cache"]
    (fresh / "BENCH_engine.json").write_text(json.dumps(data))
    assert _run(baseline, fresh) == 1
    assert "missing" in capsys.readouterr().out


def test_new_metric_absent_from_baseline_is_informational(dirs, capsys):
    """A fresh file may carry gated metrics the committed baseline
    predates (a new benchmark section landed in the same PR as its
    gate rule): that is a note, never a failure."""
    baseline, fresh = dirs
    data = json.loads((baseline / "BENCH_engine.json").read_text())
    del data["speedup_warm_cache"]
    (baseline / "BENCH_engine.json").write_text(json.dumps(data))
    assert _run(baseline, fresh) == 0
    out = capsys.readouterr().out
    assert "PASS BENCH_engine.json" in out
    assert "note:" in out
    assert "speedup_warm_cache" in out
    assert "informational until re-baselined" in out


def test_null_nested_speedup_skips(dirs):
    # A nested ratio the fresh host cannot measure is recorded as null
    # under its section; the dotted-path comparison skips.
    baseline, fresh = dirs
    _doctor(fresh, "BENCH_service.json", codec={"serialize_vs_json_ratio": None})
    assert _run(baseline, fresh) == 0


def test_new_benchmark_without_baseline_passes(dirs, capsys):
    baseline, fresh = dirs
    (baseline / "BENCH_obs.json").unlink()
    assert _run(baseline, fresh) == 0
    assert "NEW  BENCH_obs.json" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Unit checks on the comparison kernel
# ----------------------------------------------------------------------
def test_check_metric_kinds():
    check = bench_gate.check_metric
    assert check("x", bench_gate.EXACT, 0.0, 5, 5) is None
    assert "exactly" in check("x", bench_gate.EXACT, 0.0, 5, 6)
    assert check("x", bench_gate.MIN_RATIO, 0.75, 100.0, 75.0) is None
    assert "floor" in check("x", bench_gate.MIN_RATIO, 0.75, 100.0, 74.9)
    assert check("x", bench_gate.MAX_RATIO, 1.5, 1.0, 1.5) is None
    assert "ceiling" in check("x", bench_gate.MAX_RATIO, 1.5, 1.0, 1.6)
    assert "not numeric" in check(
        "x", bench_gate.MIN_RATIO, 0.75, "fast", "slow"
    )
    with pytest.raises(ValueError):
        check("x", "mystery", 0.0, 1, 1)


def test_null_ratio_metric_is_skipped_not_compared():
    # A benchmark records null when the environment cannot produce the
    # measurement (multiworker scaling on one CPU).  Either side being
    # null must read as "skipped (environment)" for ratio kinds...
    check = bench_gate.check_metric
    assert check("x", bench_gate.MIN_RATIO, 0.75, None, None) is None
    assert check("x", bench_gate.MIN_RATIO, 0.75, 2.0, None) is None
    assert check("x", bench_gate.MIN_RATIO, 0.75, None, 0.61) is None
    assert check("x", bench_gate.MAX_RATIO, 1.5, None, 99.0) is None
    # ...while parity metrics still demand an exact match.
    assert check("x", bench_gate.EXACT, 0.0, None, None) is None
    assert "exactly" in check("x", bench_gate.EXACT, 0.0, 5, None)


def test_null_multiworker_speedup_passes_end_to_end(dirs):
    baseline, fresh = dirs
    # Baseline measured on a multi-CPU box, fresh run on a 1-CPU box.
    _doctor(baseline, "BENCH_engine.json", speedup_multiworker_cold=1.4)
    _doctor(fresh, "BENCH_engine.json", speedup_multiworker_cold=None, cpu_count=1)
    assert _run(baseline, fresh) == 0


def test_min_value_and_present_kinds():
    check = bench_gate.check_metric
    assert check("x", bench_gate.MIN_VALUE, 2.0, None, 2.0) is None
    assert "minimum" in check("x", bench_gate.MIN_VALUE, 2.0, None, 1.9)
    # The multicore lane demands a real measurement: null fails here.
    assert "requires a real measurement" in check(
        "x", bench_gate.MIN_VALUE, 0.1, None, None
    )
    assert "not numeric" in check("x", bench_gate.MIN_VALUE, 0.1, None, "fast")
    # PRESENT passes on any value once the lookup resolved it.
    assert check("x", bench_gate.PRESENT, 0.0, None, {"bitset": 3}) is None


# ----------------------------------------------------------------------
# The multicore lane
# ----------------------------------------------------------------------
def _run_multicore(baseline: Path, fresh: Path) -> int:
    return bench_gate.main(
        [
            "--baseline-dir",
            str(baseline),
            "--fresh-dir",
            str(fresh),
            "--require-multicore",
        ]
    )


@pytest.fixture()
def multicore_dirs(dirs):
    """Baselines/fresh doctored to what a multi-core lane produces."""
    baseline, fresh = dirs
    for side in dirs:
        _doctor(
            side,
            "BENCH_engine.json",
            cpu_count=2,
            speedup_multiworker_cold=0.9,
            saturation={"speedup_jobs2": 1.2},
        )
        _doctor(side, "BENCH_landscape.json", n4_sampled_speedup_jobs2=1.3)
    return baseline, fresh


def test_multicore_rules_pass_with_real_measurements(multicore_dirs):
    baseline, fresh = multicore_dirs
    assert _run_multicore(baseline, fresh) == 0


def test_multicore_rules_fail_on_null_saturation(multicore_dirs, capsys):
    baseline, fresh = multicore_dirs
    _doctor(
        fresh,
        "BENCH_engine.json",
        speedup_multiworker_cold=None,
        saturation={"speedup_jobs2": None},
    )
    # The default gate still skips nulls...
    assert _run(baseline, fresh) == 0
    # ...but the multicore lane treats them as missing measurements.
    assert _run_multicore(baseline, fresh) == 1
    out = capsys.readouterr().out
    assert "requires a real measurement" in out


def test_multicore_env_var_activates(multicore_dirs, monkeypatch, capsys):
    baseline, fresh = multicore_dirs
    _doctor(fresh, "BENCH_landscape.json", n4_sampled_speedup_jobs2=None)
    monkeypatch.setenv("REPRO_BENCH_MULTICORE", "1")
    assert _run(baseline, fresh) == 1
    assert "n4_sampled_speedup_jobs2" in capsys.readouterr().out


def test_every_multicore_rule_resolves_in_doctored_baselines(multicore_dirs):
    baseline, fresh = multicore_dirs
    for name, rules in bench_gate.MULTICORE_RULES.items():
        data = json.loads((fresh / name).read_text())
        for path, _, _ in rules:
            bench_gate.lookup(data, path)


def test_lookup_dotted_paths():
    data = {"a": {"b": {"c": 3}}}
    assert bench_gate.lookup(data, "a.b.c") == 3
    with pytest.raises(bench_gate.GateFailure):
        bench_gate.lookup(data, "a.b.missing")
    with pytest.raises(bench_gate.GateFailure):
        bench_gate.lookup(data, "a.b.c.deeper")


def test_every_rule_resolves_in_its_synthetic_baseline():
    # Guards the test data itself: a rule added to the gate without a
    # matching field here would quietly skip the doctored-file coverage.
    for name, rules in bench_gate.RULES.items():
        for path, _, _ in rules:
            bench_gate.lookup(BASELINES[name], path)


# ----------------------------------------------------------------------
# The real repository baselines
# ----------------------------------------------------------------------
def test_gate_passes_on_committed_baselines(tmp_path, capsys):
    """Self-comparison of the repo's own BENCH_*.json must pass.

    Uses the working-tree files as both sides (not git HEAD) so the
    test is meaningful in a dirty tree too.
    """
    side = tmp_path / "side"
    side.mkdir()
    found = 0
    for name in bench_gate.RULES:
        source = REPO_ROOT / name
        if source.exists():
            shutil.copy(source, side / name)
            found += 1
    assert found > 0, "no BENCH_*.json files in the repository root"
    assert _run(side, side) == 0

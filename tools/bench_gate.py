#!/usr/bin/env python3
"""Benchmark trajectory gate: fresh BENCH_*.json versus committed baselines.

CI runs the benchmark suite, which rewrites the ``BENCH_*.json`` files
in the repository root, then runs this gate to compare the fresh
numbers against the committed baselines.  The gate fails (nonzero
exit, readable per-metric diff) when the trajectory regresses:

* **Parity metrics** (workload shapes, node counts, error counts,
  cached-artifact counts) must match **exactly** — these are
  deterministic, so any drift is a correctness change, not noise.
* **Ratio metrics** (warm-cache speedups, coalesce rates, overhead
  ratios) carry per-metric tolerances: a warm speedup may not drop
  below ``RATIO`` of its baseline (default 0.75 — a >25%% drop fails),
  and overhead ratios may not *grow* beyond their ceiling factor.

Absolute latencies are deliberately **not** gated — they track the CI
machine, not the code.  Ratios computed inside one run (speedup of
path A over path B on the same box) are the machine-independent signal.

A gated metric that exists in the fresh file but not in the committed
baseline is **informational**, not a failure: it is newer than the
baseline and starts gating once re-baselined (a metric missing from the
*fresh* file remains a failure — a renamed field ungates nothing).
The dedicated multi-core CI lane opts into ``MULTICORE_RULES`` via
``--require-multicore`` / ``REPRO_BENCH_MULTICORE=1``: scaling metrics
that ordinary boxes may record as ``null`` must be real measurements
there.

Baselines come from ``git show HEAD:<file>`` by default so the gate
compares against what is committed even after the benchmark step has
overwritten the working-tree files; ``--baseline-dir`` overrides this
(used by the gate's own tests).  ``--fresh-dir`` points at the freshly
produced files (default: the repository root).

Re-baselining: when a change legitimately moves a gated number —
a faster kernel, a new workload shape — run the benchmark locally,
inspect the diff this tool prints, and commit the regenerated
``BENCH_*.json`` together with the change that explains it.  The gate
compares against HEAD, so the PR that moves the number and the PR that
re-baselines it are the same PR.

Stdlib only; importable (``main(argv)``) for the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

#: Comparison kinds.
EXACT = "exact"  # fresh == baseline, exactly
MIN_RATIO = "min_ratio"  # fresh >= tolerance * baseline (bigger is better)
MAX_RATIO = "max_ratio"  # fresh <= tolerance * baseline (smaller is better)
MIN_VALUE = "min_value"  # fresh >= tolerance, absolute; null/missing fails
PRESENT = "present"  # the metric must exist in the fresh file; any value

#: file -> [(dotted metric path, kind, tolerance)].
#:
#: Every metric listed here must exist in both files; a missing metric
#: is itself a gate failure (a renamed field silently ungates nothing).
RULES: Dict[str, List[Tuple[str, str, float]]] = {
    "BENCH_solver.json": [
        ("workload.queries", EXACT, 0.0),
        ("workload.solvable", EXACT, 0.0),
        ("workload.search_nodes_total", EXACT, 0.0),
        ("median_speedup_warm", MIN_RATIO, 0.75),
        ("median_speedup_cold", MIN_RATIO, 0.50),
    ],
    "BENCH_engine.json": [
        ("workload.adversaries_classified", EXACT, 0.0),
        ("workload.solvability_queries", EXACT, 0.0),
        ("artifacts_cached", EXACT, 0.0),
        ("speedup_warm_cache", MIN_RATIO, 0.75),
        # Multiworker scaling (null on single-CPU hosts — skipped):
        # cold measures process fan-out, warm measures the persistent
        # pool's warm-setup advantage over its own first batch.
        ("speedup_multiworker_cold", MIN_RATIO, 0.75),
        ("speedup_multiworker_warm", MIN_RATIO, 0.75),
        ("saturation.speedup_jobs2", MIN_RATIO, 0.75),
    ],
    "BENCH_workers.json": [
        ("workload.affinity_jobs", EXACT, 0.0),
        ("workload.distinct_setups", EXACT, 0.0),
        ("workload.sleep_jobs", EXACT, 0.0),
        # Routing is deterministic by construction (idle-pool
        # submissions): hits and the rate must not drift at all beyond
        # tolerance, and a healthy run never restarts a worker.
        ("affinity.routed", EXACT, 0.0),
        ("affinity.hits", EXACT, 0.0),
        ("affinity.hit_rate", MIN_RATIO, 0.90),
        ("failures.worker_restarts", EXACT, 0.0),
        ("failures.redispatched", EXACT, 0.0),
        ("failures.codec_errors", EXACT, 0.0),
        ("dispatch_overhead_ratio", MAX_RATIO, 3.00),
        ("saturation.speedup_jobs2", MIN_RATIO, 0.75),
    ],
    "BENCH_landscape.json": [
        ("workload.grid_cells", EXACT, 0.0),
        ("workload.adversaries", EXACT, 0.0),
        ("verdicts.solvable", EXACT, 0.0),
        ("verdicts.unsolvable", EXACT, 0.0),
        ("verdicts.budget", EXACT, 0.0),
        ("resume.recomputed_cells", EXACT, 0.0),
        ("resume_overhead_ratio", MAX_RATIO, 10.0),
        # Definition 9 face by face over the contention-table fold
        # (same run, same facets): the table must stay the cheap path.
        ("ra_speedup_vs_definition", MIN_RATIO, 0.5),
        ("ra_facets_total", EXACT, 0.0),
    ],
    "BENCH_service.json": [
        ("requests_total", EXACT, 0.0),
        ("errors", EXACT, 0.0),
        ("burst.engine_computations", EXACT, 0.0),
        ("memcache_hit_rate", MIN_RATIO, 0.95),
        ("coalesce_rate", MIN_RATIO, 0.50),
        # Wire codec cost relative to the stdlib encoder on the same
        # certificate documents (machine-independent).
        ("codec.serialize_vs_json_ratio", MAX_RATIO, 1.50),
    ],
    "BENCH_certify.json": [
        ("workload.queries", EXACT, 0.0),
        ("workload.solvable", EXACT, 0.0),
        ("workload.unsolvable", EXACT, 0.0),
        ("certify_overhead_ratio", MAX_RATIO, 1.50),
        ("check_positive_speedup_vs_search", MIN_RATIO, 0.60),
        ("check_negative_ratio_vs_search", MAX_RATIO, 1.50),
    ],
    "BENCH_obs.json": [
        ("workload.queries", EXACT, 0.0),
        ("spans_per_batch", EXACT, 0.0),
        ("traced_overhead_ratio", MAX_RATIO, 3.00),
        ("sim.span_sim_schedule", EXACT, 0.0),
        ("sim.span_sim_round", EXACT, 0.0),
        ("sim.span_sim_guard_wait", EXACT, 0.0),
        ("sim.traced_overhead_ratio", MAX_RATIO, 3.00),
    ],
    "BENCH_sim.json": [
        ("workload.cases", EXACT, 0.0),
        ("workload.schedules_total", EXACT, 0.0),
        ("deliveries_total", EXACT, 0.0),
        ("oracle_agreement_rate", EXACT, 0.0),
        ("disagreements", EXACT, 0.0),
    ],
    # Size is gated like speed: the tree may not regrow by more than
    # 10% against the committed baseline, and every package keeps its
    # line count in the record.
    "BENCH_size.json": [("src_lines_total", MAX_RATIO, 1.10)]
    + [
        (f"packages.{package}", PRESENT, 0.0)
        for package in (
            "adversaries",
            "analysis",
            "certify",
            "core",
            "engine",
            "obs",
            "protocols",
            "runtime",
            "service",
            "sim",
            "solver",
            "sweep",
            "tasks",
            "topology",
            "workers",
        )
    ],
}


#: Extra, environment-conditional rules for the dedicated multi-core CI
#: lane (``--require-multicore`` or ``REPRO_BENCH_MULTICORE=1``).  The
#: regular rules treat a null scaling metric as "skipped (environment)"
#: because most boxes cannot measure it; the multicore lane exists to
#: measure exactly those, so there a null *is* a failure.  The floors
#: are deliberately loose sanity bounds (the trajectory gating stays
#: ratio-vs-baseline) — their job is to guarantee the lane produced
#: real, non-null measurements.
MULTICORE_RULES: Dict[str, List[Tuple[str, str, float]]] = {
    "BENCH_engine.json": [
        ("cpu_count", MIN_VALUE, 2.0),
        ("speedup_multiworker_cold", MIN_VALUE, 0.10),
        ("speedup_multiworker_warm", MIN_VALUE, 0.10),
        ("saturation.speedup_jobs2", MIN_VALUE, 0.10),
    ],
    "BENCH_workers.json": [
        # Sleep-job saturation parallelizes independently of solver
        # economics: two workers must beat one by a real margin.
        ("saturation.speedup_jobs2", MIN_VALUE, 1.20),
    ],
}


class GateFailure(Exception):
    """One metric outside its tolerance (message is the diff line)."""


def lookup(data: Dict[str, Any], path: str) -> Any:
    """Resolve a dotted path; raises :class:`GateFailure` when absent."""
    node: Any = data
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise GateFailure(f"metric {path!r} is missing")
        node = node[part]
    return node


def check_metric(
    path: str, kind: str, tolerance: float, baseline: Any, fresh: Any
) -> Optional[str]:
    """``None`` when within tolerance, else a human-readable diff line.

    Ratio metrics may legitimately be ``null`` on either side: a
    benchmark records ``null`` when its environment cannot produce the
    measurement (e.g. multiworker scaling on a single-CPU box).  A
    null on either end of a ratio comparison is "skipped (environment)",
    never a regression — the environments differ, so there is nothing
    to compare.  Parity metrics get no such out: a null there must
    match the baseline exactly like any other value.
    """
    if kind == EXACT:
        if fresh != baseline:
            return (
                f"{path}: expected exactly {baseline!r}, got {fresh!r} "
                "(parity metric — deterministic, any drift is a bug)"
            )
        return None
    if kind == PRESENT:
        return None  # existence was established by the lookup
    if kind == MIN_VALUE:
        # Absolute floor against the fresh value alone: the lane that
        # activates this rule promised the environment can measure it,
        # so null is a failure here, not a skip.
        if fresh is None:
            return (
                f"{path}: null, but this lane requires a real measurement"
            )
        try:
            fresh_value = float(fresh)
        except (TypeError, ValueError):
            return f"{path}: not numeric (fresh={fresh!r})"
        if fresh_value < tolerance:
            return f"{path}: {fresh_value:g} < required minimum {tolerance:g}"
        return None
    if baseline is None or fresh is None:
        return None  # skipped (environment): no comparable measurement
    try:
        baseline_value = float(baseline)
        fresh_value = float(fresh)
    except (TypeError, ValueError):
        return f"{path}: not numeric (baseline={baseline!r}, fresh={fresh!r})"
    if kind == MIN_RATIO:
        floor = tolerance * baseline_value
        if fresh_value < floor:
            drop = 100.0 * (1.0 - fresh_value / baseline_value)
            return (
                f"{path}: {fresh_value:g} < floor {floor:g} "
                f"({tolerance:g} x baseline {baseline_value:g}; "
                f"dropped {drop:.1f}%)"
            )
        return None
    if kind == MAX_RATIO:
        ceiling = tolerance * baseline_value
        if fresh_value > ceiling:
            return (
                f"{path}: {fresh_value:g} > ceiling {ceiling:g} "
                f"({tolerance:g} x baseline {baseline_value:g})"
            )
        return None
    raise ValueError(f"unknown rule kind {kind!r}")


def load_baseline(
    name: str, baseline_dir: Optional[str], repo_root: str
) -> Optional[Dict[str, Any]]:
    """The committed baseline, or ``None`` when it does not exist yet."""
    if baseline_dir is not None:
        path = os.path.join(baseline_dir, name)
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    proc = subprocess.run(
        ["git", "show", f"HEAD:{name}"],
        cwd=repo_root,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def load_fresh(name: str, fresh_dir: str) -> Optional[Dict[str, Any]]:
    path = os.path.join(fresh_dir, name)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def compare_file(
    name: str,
    baseline: Optional[Dict[str, Any]],
    fresh: Optional[Dict[str, Any]],
    rules: Optional[List[Tuple[str, str, float]]] = None,
) -> Tuple[List[str], List[str]]:
    """``(failures, notes)`` for one benchmark file (no failures = pass).

    A gated metric **missing from the fresh file** is a failure (a
    renamed field silently ungates nothing).  A gated metric present in
    the fresh file but **absent from the baseline** is informational: it
    is a metric newer than the committed baseline, so there is nothing
    to regress against yet — it starts gating once re-baselined.
    """
    if baseline is None:
        # First benchmark of its kind: nothing to regress against.
        return [], []
    if fresh is None:
        return [f"{name}: fresh results missing (benchmark did not run?)"], []
    failures: List[str] = []
    notes: List[str] = []
    for path, kind, tolerance in rules if rules is not None else RULES[name]:
        try:
            fresh_value = lookup(fresh, path)
        except GateFailure as exc:
            failures.append(f"{name}: fresh {exc}")
            continue
        if kind in (PRESENT, MIN_VALUE):
            # Judged against the fresh file alone — no baseline needed.
            diff = check_metric(path, kind, tolerance, None, fresh_value)
            if diff is not None:
                failures.append(f"{name}: {diff}")
            continue
        try:
            baseline_value = lookup(baseline, path)
        except GateFailure:
            notes.append(
                f"{name}: {path} = {fresh_value!r} is new (absent from "
                "the baseline) — informational until re-baselined"
            )
            continue
        diff = check_metric(path, kind, tolerance, baseline_value, fresh_value)
        if diff is not None:
            failures.append(f"{name}: {diff}")
    return failures, notes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="gate fresh BENCH_*.json files against committed baselines"
    )
    parser.add_argument(
        "--baseline-dir",
        default=None,
        help="read baselines from this directory instead of git HEAD",
    )
    parser.add_argument(
        "--fresh-dir",
        default=None,
        help="read fresh results from this directory (default: repo root)",
    )
    parser.add_argument(
        "--repo-root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root for git baseline lookup",
    )
    parser.add_argument(
        "--require-multicore",
        action="store_true",
        default=os.environ.get("REPRO_BENCH_MULTICORE") == "1",
        help="additionally enforce MULTICORE_RULES: scaling metrics "
        "must be real (non-null) measurements — the dedicated "
        "multi-core CI lane (also via REPRO_BENCH_MULTICORE=1)",
    )
    args = parser.parse_args(argv)
    fresh_dir = args.fresh_dir or args.repo_root

    failures: List[str] = []
    compared = 0
    for name in sorted(RULES):
        baseline = load_baseline(name, args.baseline_dir, args.repo_root)
        fresh = load_fresh(name, fresh_dir)
        if baseline is None and fresh is None:
            continue
        rules = list(RULES[name])
        if args.require_multicore:
            rules.extend(MULTICORE_RULES.get(name, []))
        file_failures, notes = compare_file(name, baseline, fresh, rules)
        if baseline is not None and fresh is not None:
            compared += 1
        if file_failures:
            failures.extend(file_failures)
            print(f"FAIL {name}")
            for line in file_failures:
                print(f"  {line}")
        else:
            status = "PASS" if baseline is not None else "NEW "
            print(f"{status} {name}")
        for line in notes:
            print(f"  note: {line}")

    if failures:
        print(
            f"\nbench gate: {len(failures)} metric(s) outside tolerance "
            f"across {compared} compared file(s)."
        )
        print(
            "If the change is intentional, re-run the benchmarks and "
            "commit the regenerated BENCH_*.json (see tools/bench_gate.py "
            "docstring on re-baselining)."
        )
        return 1
    print(f"\nbench gate: all gated metrics within tolerance ({compared} file(s)).")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark of the FACT decision stack, in calibration units.

Run from the repository root:

    python3 perfbench/run.py --workload e11-certified --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Workloads (each closed-loop, from one client process, seeded):

* ``n3-sweep`` — every n=3 adversary x k=1..3 through the sweep job
  body at the ``n4-sampled`` grid settings;
* ``e11-certified`` — the E11 table (every fair n=3 adversary, k=1..3):
  ``r_affine`` -> ``certified_search`` -> ``check`` per op;
* ``serve-mix`` — solve/certify/check sessions through a ``repro serve``
  subprocess over one connection;
* ``n4-sweep`` — fair n=4 cells from ``sample_adversaries(4, seed, ...)``;
  not in ``BENCHMARK.json`` (too few ops per run to be steady), kept for
  the check against ``examples/landscape_n4_sampled.json`` at seed 11.

See ``perfbench/RATIONALE.md`` for why, and for the metric definitions.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
measured for ``--seconds``.  ``--trace 1`` runs the workload's fixed
trace op set (one whole pass, or a fixed session count for serve-mix)
twice, untraced and traced, and prints the per-layer metrics; a fixed
op set, not ``--seconds``, so that per-layer totals do not scale with
how many ops fit a window.  Every run ends with one JSON line:
``correct``, ``attempted``, ``failed``, ``metrics``.  A metric that
could not be computed is printed as null and makes ``correct`` false.
The line before it holds context that is not gated (raw seconds, the
calibration slice time, the tail percentile and its sample count).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from measure import CAL_NOMINAL_S, iqm, median, tail  # noqa: E402

ROOT = Path.cwd()
WORKLOADS = ("n3-sweep", "e11-certified", "serve-mix", "n4-sweep")
#: Set-up is repeated in this many fresh interpreters; setup_s is the
#: median.  The last one is the measuring worker itself.
SETUP_REPEATS = 5
#: Every run must be over within ``--seconds`` plus this many seconds.
RUN_SLACK_S = 145.0
#: ``op_tail_cu``'s percentile per workload: the highest that leaves at
#: least 10 decided ops beyond it in one pass (129 decided ops) of
#: n3-sweep and e11-certified, and in a 30 s serve-mix run (35-60
#: sessions on the development VM).  n4-sweep has too few ops for a tail.
TAIL_PERCENTILE = {
    "n3-sweep": 90.0,
    "e11-certified": 90.0,
    "serve-mix": 70.0,
    "n4-sweep": 70.0,
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def spec() -> Dict[str, Any]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"no BENCHMARK.json in {ROOT}; run from the repository root")
    return json.loads(path.read_text(encoding="utf-8"))


def worker(args: List[str], deadline: float) -> Dict[str, Any]:
    """One fresh interpreter running perfbench/worker.py."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("REPRO_TRACE", None)
    remaining = deadline - time.perf_counter()
    if remaining <= 5:
        fail("out of time before a worker could start")
    # A worker and the server it may start share a fresh session, so a
    # worker that overruns is stopped together with its children.
    process = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        fail(f"worker {args} did not finish within {remaining:.0f} s")
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        sys.stderr.write(stderr[-4000:])
        fail(f"worker {args} exited with code {process.returncode}")
    return json.loads(lines[-1])


def op_cu(op: Dict[str, Any]) -> float:
    return op["wall"] / op["cal"]


def accounting(run: Dict[str, Any]) -> Dict[str, Any]:
    ops = run["ops"]
    failed = sum(op["failed"] for op in ops)
    # Gate problems not tied to one op (the serve-mix Engine re-check).
    failed += max(0, len(run["problems"]) - failed)
    return {
        "correct": not run["problems"] and run["gate_checks"] > 0,
        "attempted": max(len(ops), 1),
        "failed": failed,
    }


def whole_passes(ops: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The ops of every pass but the last, which the window cut short.

    Every pass of a workload is the same work, so statistics over whole
    passes do not depend on how far the last one got.  A workload
    without passes (pass 0), or a run with one pass, keeps every op.
    """
    last = max((op["pass"] for op in ops), default=0)
    if last <= 1:
        return ops
    return [op for op in ops if op["pass"] < last]


def end_to_end(workload: str, setups: List[Dict[str, Any]], run: Dict[str, Any]):
    all_ops = run["ops"]
    ops = whole_passes(all_ops)
    verdict_cu = [op_cu(op) for op in ops if op["verdict"] is not None]
    hits = [op_cu(op) for op in ops if op["cache"] == "hit"]
    misses = [op_cu(op) for op in ops if op["cache"] == "miss"]
    final = [op for op in ops if op["verdict"] != "budget" and not op["failed"]]
    op_tail = tail(verdict_cu, TAIL_PERCENTILE[workload])
    raw_p50 = median([op["wall"] for op in ops if op["verdict"] is not None])
    metrics = {
        "setup_s": median(
            [s["setup_wall"] / s["setup_cal"] * CAL_NOMINAL_S for s in setups]
        ),
        "ops_per_kcu": 1000.0 * len(ops) / sum(op_cu(op) for op in ops)
        if ops
        else None,
        "op_p50_cu": median(verdict_cu),
        "op_tail_cu": op_tail["value"],
        "decided_share": len(final) / max(len(ops), 1),
        "hit_op_iqm_cu": iqm(hits),
        "miss_op_iqm_cu": iqm(misses),
        "peak_rss_mb": run["rss_mb"],
    }
    context = {
        "measured_ops": len(ops),
        "cal_p50_ms": 1000.0 * median([op["cal"] for op in all_ops]),
        "raw.wall_s": sum(op["wall"] for op in ops),
        "raw.op_p50_ms": None if raw_p50 is None else 1000.0 * raw_p50,
        "raw.setup_s": median([s["setup_wall"] for s in setups]),
        "op_tail_percentile": op_tail["percentile"],
        "op_tail_beyond": op_tail["beyond"],
        "hit_ops": len(hits),
        "miss_ops": len(misses),
        "artifact_cells_matched": run["artifact_cells"]
        - sum(op.get("artifact", False) and op["failed"] for op in all_ops),
    }
    return metrics, context


def per_layer(bench, untraced: Dict[str, Any], traced: Dict[str, Any]):
    common = min(len(untraced["ops"]), len(traced["ops"]))
    base = sum(op_cu(op) for op in untraced["ops"][:common])
    with_spans = sum(op_cu(op) for op in traced["ops"][:common])
    # A layer the workload does not reach did no work in it: 0.  A
    # value the worker could not compute stays None.
    metrics: Dict[str, Any] = {e["name"]: 0.0 for e in bench["per_layer"]}
    metrics.update(traced["layers"])
    metrics.update(traced["shares"])
    metrics["trace_overhead_ratio"] = with_spans / base if base else None
    return metrics, {"trace_overhead_ops": common}


def measure(bench, workload: str, seed: int, seconds: float, trace: bool, tiny: bool):
    deadline = time.perf_counter() + seconds + RUN_SLACK_S
    common = ["--workload", workload, "--seed", str(seed)]
    if tiny:
        common.append("--tiny")
    if trace:
        fixed = ["--seconds", str(seconds), "--trace-set"]
        untraced = worker(common + fixed, deadline)
        traced = worker(common + fixed + ["--trace"], deadline)
        metrics, context = per_layer(bench, untraced, traced)
        runs = [untraced, traced]
    else:
        setups = [
            worker(common + ["--seconds", "0", "--setup-only"], deadline)
            for _ in range(SETUP_REPEATS - 1)
        ]
        run = worker(common + ["--seconds", str(seconds)], deadline)
        metrics, context = end_to_end(workload, setups + [run], run)
        runs = [run]
    outcome = {"correct": True, "attempted": 0, "failed": 0}
    for run in runs:
        part = accounting(run)
        outcome["correct"] = outcome["correct"] and part["correct"]
        outcome["attempted"] += part["attempted"]
        outcome["failed"] += part["failed"]
    context["problems"] = [p for run in runs for p in run["problems"]][:10]
    return outcome, metrics, context


def report(bench, outcome, metrics, context, trace: bool) -> Dict[str, Any]:
    declared = bench["per_layer" if trace else "end_to_end"]
    result = dict(outcome)
    missing = [e["name"] for e in declared if metrics.get(e["name"]) is None]
    if missing:
        result["correct"] = False
        context["problems"].append(f"no value for {', '.join(missing)}")
    result["metrics"] = {
        entry["name"]: {"value": metrics.get(entry["name"]), "unit": entry["unit"]}
        for entry in declared
    }
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return result


def selftest(bench) -> int:
    """Tiny runs of every workload, both modes; checks names and the gate."""
    produced = set()
    for workload in WORKLOADS:
        for trace in (False, True):
            outcome, metrics, context = measure(bench, workload, 1, 120.0, trace, True)
            result = report(bench, outcome, metrics, context, trace)
            declared = bench["per_layer" if trace else "end_to_end"]
            assert set(result["metrics"]) == {e["name"] for e in declared}
            for entry in declared:
                assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
            produced |= {name for name, value in metrics.items() if value}
            assert result["correct"], context["problems"]
            assert result["attempted"] >= 1 and result["failed"] == 0
            if not trace:
                assert all(metrics[e["name"]] for e in declared), metrics
    unmeasured = {e["name"] for e in bench["per_layer"]} - produced
    assert not unmeasured, f"per-layer metrics no workload measured: {unmeasured}"
    print("perfbench self-test passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no src/repro under {ROOT}; run from the repository root")
    bench = spec()
    if args.selftest:
        return selftest(bench)
    if args.workload is None:
        parser.error("--workload is required")
    outcome, metrics, context = measure(
        bench, args.workload, args.seed, args.seconds, bool(args.trace), False
    )
    report(bench, outcome, metrics, context, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())

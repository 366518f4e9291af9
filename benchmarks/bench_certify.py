"""Certificate economics: extraction overhead and check-vs-search cost.

The workload is the E11 FACT grid (5 affine tasks x k in 1..3), run
three ways:

* plain solve — one :class:`MapSearch` per query (the baseline);
* certified solve — the same search plus certificate extraction;
* independent check — the stdlib checker validating each certificate.

Plain and certified passes alternate ``PAIRS`` times, each on a freshly
built grid (new affine and task objects, so no set-up, search structure
or codec memo survives from an earlier pass), and keep the per-query
minimum; ``certify_overhead_ratio`` is the median over pairs of the
certified pass's time over the plain pass's, so the ~25 ms plain
denominator is always timed beside its numerator.  Checks are timed
the same way, positive and negative apart: ``PAIRS`` rounds, each on a
fresh grid, certify every query of the kind and then check its
certificate ``REPEATS`` times, keeping the minimum;
``check_positive_speedup_vs_search`` and
``check_negative_ratio_vs_search`` are medians over rounds of one
round's search and check times, so a slow spell of the machine lands
on both sides of a round's ratio instead of on a few milliseconds of
checks timed once at the end.

The claims worth recording honestly: extraction is a read-out of state
the search already computed, not a second search, though on these
few-millisecond searches its fixed costs (the statement's encodings
and digests) still show.  Checking a *positive* certificate verifies
one assignment instead of searching the space, yet it re-derives the
closure, the carriers and the digests from the certificate body, and
on these small complexes that costs about as much as one cold
certified search: the committed baseline reads
``check_positive_speedup_vs_search`` 1.2 (single core of a 2-vCPU
Intel Xeon VM), though the checker folds each vertex's carrier and
renders each vertex encoding once per check.
Checking a *negative* certificate replays the exhaustive backtrack and
therefore costs the same order as the refuting search — there is no
free lunch for refutations.  Numbers land in ``BENCH_certify.json`` at
the repo root.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from pathlib import Path

from repro.adversaries import (
    agreement_function_of,
    figure5b_adversary,
    k_concurrency_alpha,
    t_resilience_alpha,
)
from repro.analysis import render_mapping
from repro.certify import certified_search, check
from repro.core import full_affine_task, r_affine
from repro.tasks.set_consensus import set_consensus_task
from repro.tasks.solvability import MapSearch

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_certify.json"


def _grid():
    affines = [
        full_affine_task(3, 1),
        r_affine(k_concurrency_alpha(3, 1)),
        r_affine(k_concurrency_alpha(3, 2)),
        r_affine(t_resilience_alpha(3, 1)),
        r_affine(agreement_function_of(figure5b_adversary())),
    ]
    return [
        (affine, set_consensus_task(3, k))
        for affine in affines
        for k in range(1, 4)
    ]


#: Each check runs this many times and keeps its minimum.
REPEATS = 5
#: Plain and certified passes alternate this many times.
PAIRS = 15


def _timed(stage):
    started = time.perf_counter()
    value = stage()
    return value, time.perf_counter() - started


def _one_pass(stage):
    """``stage`` over one freshly built grid: values and wall times.

    A fresh grid means fresh affine and task objects: no solver set-up,
    search structure or codec memo entry survives from an earlier pass,
    so every pass measures the cold path.
    """
    grid = _grid()
    gc.collect()
    values, times = [], []
    for affine, task in grid:
        value, elapsed = _timed(lambda: stage(affine, task))
        values.append(value)
        times.append(elapsed)
    return values, times


def _alternating(plain_stage, certified_stage):
    """``PAIRS`` plain passes alternating with certified ones.

    Returns the last values of each, each query's minimum time, and the
    median over pairs of certified time over plain time: a pair's two
    passes run back to back, so a slow spell of the machine lands on
    both sides of its ratio instead of on one stage's minimum.
    """
    best = {"plain": None, "certified": None}
    values = {}
    ratios = []
    for _ in range(PAIRS):
        totals = {}
        for name, stage in (("plain", plain_stage), ("certified", certified_stage)):
            values[name] = None  # let the previous pass's objects go first
            values[name], times = _one_pass(stage)
            totals[name] = sum(times)
            kept = best[name]
            best[name] = times if kept is None else list(map(min, kept, times))
        ratios.append(totals["certified"] / totals["plain"])
    return values, best, statistics.median(ratios)


def _check_rounds(indices, kind):
    """``PAIRS`` rounds of certified search then repeated checks.

    Every query in ``indices`` must certify as ``kind``.  Returns each
    query's minimum check time over all rounds and, per round, the
    round's total search time and total check time.
    """
    best = None
    rounds = []
    for _ in range(PAIRS):
        grid = _grid()
        gc.collect()
        searched, checks = 0.0, []
        for index in indices:
            affine, task = grid[index]
            (_, cert), elapsed = _timed(lambda: certified_search(affine, task))
            assert cert["kind"] == kind
            searched += elapsed
            checks.append(
                min(_timed(lambda: check(cert))[1] for _ in range(REPEATS))
            )
        rounds.append((searched, sum(checks)))
        best = checks if best is None else list(map(min, best, checks))
    return best, rounds


def bench_certify():
    values, best, overhead = _alternating(
        lambda affine, task: MapSearch(affine, task).search(), certified_search
    )
    plain, certs = values["plain"], values["certified"]
    t_plain = sum(best["plain"])
    t_certified = sum(best["certified"])
    # The certified verdicts agree with the plain searches.
    assert [m for m, _ in certs] == plain

    indices = {"solvable": [], "unsolvable": []}
    for index, (_, cert) in enumerate(certs):
        report = check(cert)
        assert report.valid, (report.reason, report.detail)
        indices[cert["kind"]].append(index)
    counts = {kind: len(found) for kind, found in indices.items()}
    assert counts["solvable"] and counts["unsolvable"]
    positive_checks, positive_rounds = _check_rounds(
        indices["solvable"], "solvable"
    )
    negative_checks, negative_rounds = _check_rounds(
        indices["unsolvable"], "unsolvable"
    )

    report = {
        "workload": {
            "queries": len(certs),
            "solvable": counts["solvable"],
            "unsolvable": counts["unsolvable"],
        },
        "t_plain_solve_s": round(t_plain, 4),
        "t_certified_solve_s": round(t_certified, 4),
        # Median over alternating pairs of certified over plain time:
        # >1.0 means extraction cost something; near 1.0 is the claim.
        "certify_overhead_ratio": round(overhead, 3),
        "t_check_positive_s": round(sum(positive_checks), 4),
        "t_check_negative_s": round(sum(negative_checks), 4),
        # Positive: verify one assignment vs search the space (median
        # over rounds of search time over check time).
        "check_positive_speedup_vs_search": round(
            statistics.median(s / c for s, c in positive_rounds), 1
        ),
        # Negative: the replay IS a search; expect ~1x, recorded as-is
        # (median over rounds of check time over refuting-search time).
        "check_negative_ratio_vs_search": round(
            statistics.median(c / s for s, c in negative_rounds), 3
        ),
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print()
    print(render_mapping("certificate economics:", report))
    print(f"wrote {OUTPUT}")

    # Extraction must stay a by-product, not a re-search.  Both ratios
    # move with machine state (the solve denominator speeds up and
    # slows down independently of the fixed extraction/check cost), so
    # only structural blow-ups are asserted here — the run-over-run
    # trajectory is bounded against the committed baseline by
    # tools/bench_gate.py.
    assert report["certify_overhead_ratio"] < 5.0
    assert report["check_positive_speedup_vs_search"] > 0.2

#!/usr/bin/env python3
"""Batch solvability through the compute engine.

Classifies the Figure-2 adversary zoo and decides the E11 FACT
set-consensus table — twice, through one persistent
:class:`repro.engine.Engine` session:

1. a *cold* pass computes every artifact and fills a content-addressed
   on-disk cache;
2. a *warm* pass answers the identical batch from cache reads alone.

Both passes print the same tables (a warm cache must reproduce the
cold results exactly); the closing statistics show the
hit/miss ledger and the measured warm-over-cold speedup.

Run:  python examples/batch_solvability.py [--jobs N]
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

from repro.adversaries import (
    agreement_function_of,
    build_catalogue,
    figure5b_adversary,
    k_concurrency_alpha,
    t_resilience_alpha,
)
from repro.analysis import banner, render_mapping, render_table
from repro.core import full_affine_task, r_affine
from repro.engine import ArtifactCache, Engine


def run_batch(engine: Engine) -> None:
    catalogue = build_catalogue(3)
    classified = engine.classify_many(
        [entry.adversary for entry in catalogue]
    )
    rows = [
        [
            entry.name,
            "yes" if record.superset_closed else "no",
            "yes" if record.symmetric else "no",
            "yes" if record.fair else "NO",
            record.power,
        ]
        for entry, record in zip(catalogue, classified)
    ]
    print(render_table(["adversary", "ssc", "sym", "fair", "setcon"], rows))

    cases = [
        ("wait-free (Chr s)", full_affine_task(3, 1)),
        ("R_A(1-OF)", r_affine(k_concurrency_alpha(3, 1))),
        ("R_A(2-OF)", r_affine(k_concurrency_alpha(3, 2))),
        ("R_A(1-res)", r_affine(t_resilience_alpha(3, 1))),
        ("R_A(fig5b)", r_affine(agreement_function_of(figure5b_adversary()))),
    ]
    answers = engine.minimal_set_consensus_many([task for _, task in cases])
    print(
        render_table(
            ["affine task", "min k-set consensus"],
            [(name, k) for (name, _), k in zip(cases, answers)],
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = Path(tmp) / "engine-cache"

        print(banner(f"cold pass — jobs={args.jobs}, filling {cache_dir}"))
        cold = Engine(jobs=args.jobs, cache=ArtifactCache(cache_dir))
        started = time.perf_counter()
        run_batch(cold)
        t_cold = time.perf_counter() - started

        print(banner("warm pass — identical batch, cache reads only"))
        warm = Engine(jobs=args.jobs, cache=ArtifactCache(cache_dir))
        started = time.perf_counter()
        run_batch(warm)
        t_warm = time.perf_counter() - started

        print(
            render_mapping(
                "engine session:",
                {
                    "cold pass": f"{t_cold:.3f} s  {cold.stats()}",
                    "warm pass": f"{t_warm:.3f} s  {warm.stats()}",
                    "warm speedup": f"{t_cold / t_warm:.1f}x",
                    "artifacts on disk": len(ArtifactCache(cache_dir)),
                },
            )
        )
        assert warm.stats()["misses"] == 0, "warm pass recomputed something"
    return 0


if __name__ == "__main__":
    sys.exit(main())

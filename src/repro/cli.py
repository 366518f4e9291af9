"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's artifacts from the terminal:

* ``figures``    — censuses behind Figures 1/4/6/7;
* ``classify``   — the Figure-2 classification of the adversary zoo;
* ``landscape``  — the exhaustive n=3 adversary landscape (E15);
* ``fact``       — the FACT set-consensus table (E11);
* ``algorithm1`` — fuzz Algorithm 1 under α-model schedules (E8);
* ``crossover``  — the ε-agreement depth crossover (E14);
* ``inspect``    — classify one adversary given as live sets
  (``--json`` emits the service response schema);
* ``batch``      — zoo classification + E11 through the compute engine;
* ``serve``      — run the resident query service (``repro.service``);
* ``query``      — issue queries against a running service;
* ``certify``    — one certified FACT query, written as a portable
  certificate JSON file (``repro.certify``);
* ``check``      — validate certificate files with the independent
  checker (imports only ``repro.certify.checker``);
* ``sim``        — explore one executable protocol under generated
  fault plans (``repro.sim``);
* ``oracle``     — differential oracle: simulator verdicts versus
  FACT / resilience-regime references, with replayable
  disagreement artifacts;
* ``sweep``      — run or resume a checkpointed landscape sweep
  (``repro.sweep``): ``--grid`` names a preset or a grid JSON file,
  progress persists after every completed cell, ``--resume`` continues
  a killed run, ``--limit`` bounds one slice;
* ``trace``      — summarize a JSONL trace file (``repro.obs``).

``classify``, ``landscape``, ``fact`` and ``algorithm1`` accept
``--jobs N`` / ``--cache-dir PATH`` / ``--no-cache``; with the defaults
(``--jobs 1``, no cache) they bypass the engine entirely and run the
legacy in-process code, so default invocations stay byte-identical.

Any command accepts span tracing via ``--trace FILE.jsonl`` (where the
engine options are available) or the ``REPRO_TRACE`` environment
variable: the command runs with the :mod:`repro.obs` tracer enabled and
the finished spans are appended to the file on exit, ready for
``repro trace FILE.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .adversaries import (
    Adversary,
    agreement_function_of,
    build_catalogue,
    csize,
    fairness_counterexample,
    figure5b_adversary,
    is_fair,
    k_concurrency_alpha,
    setcon,
    t_resilience_alpha,
)
from .analysis import (
    banner,
    complex_census,
    render_mapping,
    render_table,
)
from .core import (
    concurrency_census,
    contention_complex,
    full_affine_task,
    r_affine,
    r_k_obstruction_free,
    r_t_resilient,
)
from .topology import chr_complex


def _build_engine(args: argparse.Namespace, default_cache: bool = False):
    """An :class:`repro.engine.Engine` configured from CLI options."""
    from .engine import ArtifactCache, Engine, NullCache
    from .solver import DEFAULT_KERNEL

    cache_dir = getattr(args, "cache_dir", None)
    want_cache = (
        cache_dir is not None or default_cache
    ) and not getattr(args, "no_cache", False)
    cache = ArtifactCache(cache_dir) if want_cache else NullCache()
    return Engine(
        jobs=getattr(args, "jobs", 1),
        cache=cache,
        kernel=getattr(args, "kernel", None) or DEFAULT_KERNEL,
    )


def _engine_from_args(args: argparse.Namespace):
    """An engine when the user opted in, else ``None`` (legacy path).

    An explicit ``--kernel`` is an opt-in too: kernel selection lives in
    the engine, so asking for one routes the command through it.
    """
    if (
        getattr(args, "jobs", 1) == 1
        and getattr(args, "cache_dir", None) is None
        and getattr(args, "kernel", None) is None
    ):
        return None
    return _build_engine(args)


def _cmd_figures(args: argparse.Namespace) -> int:
    print(banner("Figure 1 — subdivisions"))
    for depth in (1, 2):
        census = complex_census(chr_complex(3, depth))
        print(render_mapping(f"Chr^{depth} s:", census))
    print(banner("Figure 4c — Cont2"))
    print(render_mapping("census:", {"f_vector": contention_complex(3).f_vector()}))
    print(banner("Figure 6 — concurrency censuses"))
    chr1 = chr_complex(3, 1)
    print(render_mapping("1-OF:", concurrency_census(chr1, k_concurrency_alpha(3, 1))))
    print(
        render_mapping(
            "fig5b:",
            concurrency_census(
                chr1, agreement_function_of(figure5b_adversary())
            ),
        )
    )
    print(banner("Figure 7 — affine tasks"))
    rows = [
        ("R_A(1-OF)", len(r_affine(k_concurrency_alpha(3, 1)).complex.facets)),
        ("R_A(1-res)", len(r_affine(t_resilience_alpha(3, 1)).complex.facets)),
        (
            "R_A(fig5b)",
            len(
                r_affine(
                    agreement_function_of(figure5b_adversary())
                ).complex.facets
            ),
        ),
        ("R_1-OF (Def 6)", len(r_k_obstruction_free(3, 1).complex.facets)),
        ("R_1-res (SHG16)", len(r_t_resilient(3, 1).complex.facets)),
    ]
    print(render_table(["task", "facets"], rows))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    print(banner(f"Figure 2 — classification (n = {args.n})"))
    catalogue = build_catalogue(args.n)
    engine = _engine_from_args(args)
    rows = []
    if engine is not None:
        classified = engine.classify_many(
            [entry.adversary for entry in catalogue]
        )
        for entry, record in zip(catalogue, classified):
            rows.append(
                [
                    entry.name,
                    "yes" if record.superset_closed else "no",
                    "yes" if record.symmetric else "no",
                    "yes" if record.fair else "NO",
                    record.power,
                    csize(entry.adversary),
                ]
            )
    else:
        for entry in catalogue:
            adversary = entry.adversary
            rows.append(
                [
                    entry.name,
                    "yes" if adversary.is_superset_closed() else "no",
                    "yes" if adversary.is_symmetric() else "no",
                    "yes" if is_fair(adversary) else "NO",
                    setcon(adversary),
                    csize(adversary),
                ]
            )
    print(render_table(["adversary", "ssc", "sym", "fair", "setcon", "csize"], rows))
    if engine is not None:
        engine.close()
    return 0


def _cmd_landscape(args: argparse.Namespace) -> int:
    from .analysis.landscape import classify_all, summarize

    print(banner("E15 — the complete n=3 adversary landscape"))
    engine = _engine_from_args(args)
    summary = summarize(classify_all(3, engine=engine), engine=engine)
    print(
        render_mapping(
            "summary:",
            {
                "adversaries": summary.total,
                "fair": summary.fair,
                "superset-closed": summary.superset_closed,
                "symmetric": summary.symmetric,
                "setcon histogram": summary.power_histogram,
                "distinct alphas (fair)": summary.distinct_alphas_fair,
                "distinct affine tasks": summary.distinct_affine_tasks,
            },
        )
    )
    if engine is not None:
        engine.close()
    return 0


def _cmd_fact(args: argparse.Namespace) -> int:
    from .tasks import minimal_set_consensus

    print(banner("E11 — FACT set-consensus table"))
    cases = [
        ("wait-free (Chr s)", full_affine_task(3, 1)),
        ("R_A(1-OF)", r_affine(k_concurrency_alpha(3, 1))),
        ("R_A(2-OF)", r_affine(k_concurrency_alpha(3, 2))),
        ("R_A(1-res)", r_affine(t_resilience_alpha(3, 1))),
        ("R_A(fig5b)", r_affine(agreement_function_of(figure5b_adversary()))),
    ]
    engine = _engine_from_args(args)
    if engine is not None:
        answers = engine.minimal_set_consensus_many(
            [task for _, task in cases]
        )
        rows = [(name, k) for (name, _), k in zip(cases, answers)]
    else:
        rows = [(name, minimal_set_consensus(task)) for name, task in cases]
    print(render_table(["affine task", "min k-set consensus"], rows))
    if engine is not None:
        engine.close()
    return 0


def _cmd_algorithm1(args: argparse.Namespace) -> int:
    from .runtime import fuzz_algorithm1

    print(banner(f"E8 — Algorithm 1, {args.runs} fuzzed α-model runs"))
    alpha = t_resilience_alpha(3, 1)
    task = r_affine(alpha)
    engine = _engine_from_args(args)
    if engine is not None:
        # Per-case seeds: reproducible, worker-count independent — but a
        # different schedule stream than the legacy single-RNG fuzzer.
        cases = engine.fuzz_many(
            alpha, task, runs=args.runs, seed=args.seed
        )
        steps = [steps_taken for _, steps_taken in cases]
        violations = sum(1 for ok, _ in cases if not ok)
        run_count = len(cases)
    else:
        outcomes = fuzz_algorithm1(
            alpha, task, runs=args.runs, seed=args.seed
        )
        steps = [outcome.result.steps_taken for outcome in outcomes]
        violations = 0
        run_count = len(outcomes)
    if engine is not None:
        engine.close()
    print(
        render_mapping(
            "1-resilient model:",
            {
                "runs": run_count,
                "safety violations": violations,
                "min/median/max steps": (
                    min(steps),
                    sorted(steps)[len(steps) // 2],
                    max(steps),
                ),
            },
        )
    )
    return 0


def _cmd_crossover(args: argparse.Namespace) -> int:
    from .tasks.approximate_agreement import solvable_at_depth

    print(banner("E14 — ε-agreement depth crossover"))
    rows = []
    for m in (1, 2, 3):
        rows.append(
            [f"eps=3^-{m}"]
            + [
                "yes" if solvable_at_depth(m, depth) else "no"
                for depth in (1, 2, 3)
            ]
        )
    print(render_table(["task \\ depth", "l=1", "l=2", "l=3"], rows))
    return 0


def _inspect_census(adversary: Adversary):
    """The ``R_A`` complex census for a fair, powered adversary, or None."""
    if not is_fair(adversary) or setcon(adversary) < 1:
        return None
    task = r_affine(agreement_function_of(adversary))
    return complex_census(task.complex)


def _cmd_inspect(args: argparse.Namespace) -> int:
    live_sets = json.loads(args.live_sets)
    adversary = Adversary(args.n, [set(live) for live in live_sets])
    if getattr(args, "json", False):
        # Machine-readable path: one ``classify`` job through the
        # engine, emitted in the service's wire schema (protocol v1),
        # so scripted callers parse one format for CLI and service.
        # The complex census rides along as an additive top-level key
        # (``value`` stays byte-for-byte the service schema).
        from .engine import Engine, JobSpec, serialize
        from .service.protocol import encode_message, response_for_result

        (result,) = Engine().run_jobs([JobSpec("classify", (adversary,))])
        value_text = serialize(result.value) if result.ok else None
        message = response_for_result(0, result, value_text)
        message["census"] = _inspect_census(adversary) if result.ok else None
        print(encode_message(message))
        return 0 if result.ok else 1
    print(banner(f"inspecting {adversary!r}"))
    fair = is_fair(adversary)
    info = {
        "superset-closed": adversary.is_superset_closed(),
        "symmetric": adversary.is_symmetric(),
        "fair": fair,
        "setcon": setcon(adversary),
        "csize": csize(adversary),
    }
    print(render_mapping("classification:", info))
    if not fair:
        print(f"fairness counterexample: {fairness_counterexample(adversary)}")
    elif setcon(adversary) >= 1:
        print(render_mapping("affine task R_A:", _inspect_census(adversary)))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run or resume a checkpointed landscape sweep (``repro.sweep``).

    Progress persists after every completed cell, so a killed run picks
    up where it stopped with ``--resume`` — and the final artifact is
    byte-identical to an uninterrupted run's.  Exit 0 means the grid is
    complete; a ``--limit`` slice that leaves cells pending exits 2.
    """
    from .sweep import SweepDriver, load_grid

    try:
        grid = load_grid(args.grid)
    except ValueError as exc:
        raise SystemExit(f"repro sweep: {exc}")
    engine = _build_engine(args)
    driver = SweepDriver(grid, args.checkpoint_dir, engine=engine)
    try:
        status = driver.run(resume=args.resume, limit=args.limit)
    except ValueError as exc:
        driver.close()
        raise SystemExit(f"repro sweep: {exc}")
    if args.escalate and status["complete"]:
        escalated = driver.escalate(args.escalate)
        status = {**status, "escalated": escalated}
        if escalated:
            status["artifact"] = driver.assemble_artifact()
    shown = {
        "grid": status["grid"],
        "digest": status["grid_digest"][:12],
        "cells": status["cells"],
        "resumed from checkpoint": status["resumed"],
        "computed now": status["computed"],
        "complete": status["complete"],
    }
    if "escalated" in status:
        shown["escalated"] = status["escalated"]
    print(render_mapping("sweep:", shown))
    if status["complete"]:
        summary = status["artifact"]["summary"]
        print(
            render_mapping(
                "landscape:",
                {
                    "adversaries": summary["adversaries"],
                    "fair cells": summary["fair_cells"],
                    "verdicts": summary["verdicts"],
                    "distinct alphas (fair)": summary["distinct_alphas_fair"],
                    "solve nodes": summary["solve_nodes_total"],
                },
            )
        )
        if args.output is not None:
            data = driver.write_artifact(args.output)
            print(f"wrote {args.output} ({len(data)} bytes)")
        driver.close()
        return 0
    remaining = status["cells"] - status["done"]
    print(f"{remaining} cell(s) pending; rerun with --resume to continue")
    driver.close()
    return 2


#: ``repro batch`` sections, keyed by the engine job kind they exercise.
_BATCH_SECTIONS = ("classify", "solve", "simulate", "oracle")


def _batch_sections(args: argparse.Namespace) -> List[str]:
    """Resolve ``--only`` into batch sections; bad kinds exit cleanly."""
    from .engine.jobs import JOB_KINDS

    requested = list(dict.fromkeys(getattr(args, "only", None) or []))
    for kind in requested:
        if kind not in JOB_KINDS:
            raise SystemExit(
                f"repro batch: unknown job kind {kind!r}; valid kinds: "
                + ", ".join(sorted(JOB_KINDS))
            )
    for kind in requested:
        if kind not in _BATCH_SECTIONS:
            raise SystemExit(
                f"repro batch: job kind {kind!r} has no batch section; "
                "batch sections: " + ", ".join(_BATCH_SECTIONS)
            )
    # Default = the historical batch (zoo + E11); sim/oracle opt in.
    return requested or ["classify", "solve"]


def _cmd_batch(args: argparse.Namespace) -> int:
    """Zoo classification + the E11 FACT table as one engine session.

    Unlike the other commands, ``batch`` always runs through the engine
    and caches by default (to ``--cache-dir``, ``$REPRO_CACHE_DIR`` or
    ``~/.cache/repro-engine``); a warm second invocation does no
    expensive computation at all.  ``--only`` restricts the run to the
    sections for specific job kinds (e.g. ``--only simulate oracle``).
    """
    from .solver import SolveRequest
    from .tasks.set_consensus import set_consensus_task

    sections = _batch_sections(args)
    engine = _build_engine(args, default_cache=True)
    cache_note = (
        str(engine.cache.root) if engine.cache.persistent else "disabled"
    )
    print(
        banner(
            f"engine batch — jobs={engine.jobs}, cache={cache_note}, "
            f"kernel={engine.kernel}"
        )
    )

    exit_code = 0
    if "classify" in sections:
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
        print(
            render_table(["adversary", "ssc", "sym", "fair", "setcon"], rows)
        )

    if "solve" in sections:
        cases = [
            ("wait-free (Chr s)", full_affine_task(3, 1)),
            ("R_A(1-OF)", r_affine(k_concurrency_alpha(3, 1))),
            ("R_A(2-OF)", r_affine(k_concurrency_alpha(3, 2))),
            ("R_A(1-res)", r_affine(t_resilience_alpha(3, 1))),
            (
                "R_A(fig5b)",
                r_affine(agreement_function_of(figure5b_adversary())),
            ),
        ]
        queries = [
            SolveRequest(
                affine=task,
                task=set_consensus_task(task.n, k),
                kernel=engine.kernel,
            )
            for _, task in cases
            for k in range(1, 4)
        ]
        solved = engine.solve_many(queries)
        fact_rows = []
        for row, (name, _) in enumerate(cases):
            answers = solved[row * 3 : row * 3 + 3]
            min_k = next(
                k for k, (mapping, _) in enumerate(answers, start=1)
                if mapping is not None
            )
            nodes = sum(nodes for _, nodes in answers)
            fact_rows.append((name, min_k, nodes))
        print(
            render_table(
                ["affine task", "min k-set consensus", "search nodes"],
                fact_rows,
            )
        )

    if "simulate" in sections:
        from .sim import standard_grid

        grid = standard_grid()
        reports = engine.simulate_many(case.payload() for case in grid)
        sim_rows = [
            [
                case.name,
                report["plans"],
                report["schedules"],
                report["blocked_runs"],
                "pass" if report["pass"] else "VIOLATION",
            ]
            for case, report in zip(grid, reports)
        ]
        print(
            render_table(
                ["sim case", "plans", "schedules", "blocked", "verdict"],
                sim_rows,
            )
        )

    if "oracle" in sections:
        from .sim import standard_grid

        grid = standard_grid()
        reports = engine.oracle_many(case.payload() for case in grid)
        oracle_rows = []
        for case, report in zip(grid, reports):
            reference = report["reference"]
            agree = report["agree"]
            if not agree:
                exit_code = 1
            oracle_rows.append(
                [
                    case.name,
                    reference["method"],
                    "yes" if reference["solvable"] else "no",
                    "pass" if report["sim"]["pass"] else "VIOLATION",
                    "yes" if agree else "DISAGREE",
                ]
            )
        print(
            render_table(
                ["oracle case", "reference", "solvable", "sim", "agree"],
                oracle_rows,
            )
        )

    stats = engine.stats()
    print(
        render_mapping(
            "engine:",
            {
                "jobs": engine.jobs,
                "cache hits": stats["hits"],
                "cache misses": stats["misses"],
            },
        )
    )
    engine.close()
    return exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the resident query service until SIGTERM/SIGINT, then drain."""
    import asyncio
    import signal as signal_module

    from .service import ServiceServer

    engine = _build_engine(args, default_cache=True)
    cache_note = (
        str(engine.cache.root) if engine.cache.persistent else "disabled"
    )

    async def _serve() -> None:
        server = ServiceServer(
            engine,
            host=args.host,
            port=args.port,
            max_connections=args.max_connections,
            max_inflight=args.max_inflight,
            request_timeout=args.request_timeout,
            drain_grace=args.drain_grace,
            memcache_size=args.memcache_size,
        )
        await server.start()
        # The smoke tests and deployment wrappers parse this line for
        # the bound port, so keep its shape stable.
        print(
            f"repro service listening on {server.host}:{server.port} "
            f"(jobs={engine.jobs}, disk-cache={cache_note}, "
            f"memcache={args.memcache_size})",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        for signum in (signal_module.SIGTERM, signal_module.SIGINT):
            try:
                loop.add_signal_handler(signum, server.request_drain)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await server.wait_stopped()
        print(server.metrics.render_text(), end="", flush=True)
        print("repro service drained cleanly", flush=True)

    asyncio.run(_serve())
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    """One query against a running service; ``--json`` emits raw wire."""
    from .service import ServiceClient

    def _adversary():
        if args.live_sets is None:
            raise SystemExit(f"query {args.what} requires live sets JSON")
        return Adversary(
            args.n, [set(live) for live in json.loads(args.live_sets)]
        )

    def _emit(response: dict) -> None:
        print(json.dumps(response, sort_keys=True))

    with ServiceClient(
        host=args.host, port=args.port, timeout=args.timeout
    ) as client:
        if args.what == "ping":
            client.ping()
            print("pong")
            return 0
        if args.what == "stats":
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.what == "metrics":
            print(client.metrics_text(), end="")
            return 0
        if args.what == "chr":
            response = client.query_response("chr", (args.n, args.depth))
            if args.json:
                _emit(response)
            else:
                built = client._decode_value(response)
                print(render_mapping("census:", complex_census(built)))
            return 0
        if args.what == "classify":
            response = client.query_response("classify", (_adversary(),))
            if args.json:
                _emit(response)
            else:
                fair, ssc, sym, power, _alpha = client._decode_value(response)
                print(
                    render_mapping(
                        "classification:",
                        {
                            "superset-closed": ssc,
                            "symmetric": sym,
                            "fair": fair,
                            "setcon": power,
                        },
                    )
                )
            return 0
        if args.what in ("simulate", "oracle"):
            adversary = (
                Adversary(
                    args.n,
                    [set(live) for live in json.loads(args.live_sets)],
                )
                if args.live_sets is not None
                else None
            )
            response = client.query_response(
                args.what,
                (
                    args.protocol,
                    adversary,
                    args.n,
                    args.t,
                    args.k,
                    args.schedules,
                    args.seed,
                ),
            )
            if args.json:
                _emit(response)
                return 0
            report = client._decode_value(response)
            if args.what == "simulate":
                print(
                    render_mapping(
                        f"sim {args.protocol}:",
                        {
                            "fault plans": report["plans"],
                            "schedules": report["schedules"],
                            "violations": report["violations"],
                            "verdict": (
                                "pass" if report["pass"] else "VIOLATION"
                            ),
                            "cache hit": response["cache_hit"],
                        },
                    )
                )
            else:
                reference = report["reference"]
                print(
                    render_mapping(
                        f"oracle {args.protocol}:",
                        {
                            "reference": reference["method"],
                            "solvable": reference["solvable"],
                            "sim pass": report["sim"]["pass"],
                            "agree": report["agree"],
                            "cache hit": response["cache_hit"],
                        },
                    )
                )
            return 0
        # The remaining kinds consume R_A; build it server-side (and
        # cached there) from the adversary's agreement function.
        alpha = agreement_function_of(_adversary())
        from .core.ra import DEFAULT_VARIANT

        affine = client.query("r_affine", (alpha, DEFAULT_VARIANT))
        if args.what == "r_affine":
            response = client.query_response(
                "r_affine", (alpha, DEFAULT_VARIANT)
            )
            if args.json:
                _emit(response)
            else:
                print(
                    render_mapping(
                        "affine task R_A:", complex_census(affine.complex)
                    )
                )
            return 0
        if args.what == "solve":
            from .tasks.set_consensus import set_consensus_task

            task = set_consensus_task(args.n, args.k)
            response = client.query_response(
                "solve", (affine, task, args.budget, None)
            )
            if args.json:
                _emit(response)
            else:
                mapping, nodes = client._decode_value(response)
                print(
                    render_mapping(
                        f"{args.k}-set consensus in R_A:",
                        {
                            "solvable": mapping is not None,
                            "nodes explored": nodes,
                            "cache hit": response["cache_hit"],
                        },
                    )
                )
            return 0
        if args.what == "certify":
            from .certify import write_cert
            from .tasks.set_consensus import set_consensus_task

            task = set_consensus_task(args.n, args.k)
            response = client.query_response(
                "certify", (affine, task, args.budget)
            )
            cert = client._decode_value(response)
            if args.output is not None:
                write_cert(args.output, cert)
            if args.json:
                _emit(response)
            else:
                print(
                    render_mapping(
                        f"certificate for {args.k}-set consensus in R_A:",
                        {
                            "kind": cert["kind"],
                            "cache hit": response["cache_hit"],
                            "written to": args.output or "(not written)",
                        },
                    )
                )
            return 0
        if args.what == "fuzz":
            response = client.query_response(
                "fuzz", (alpha, affine, args.seed)
            )
            if args.json:
                _emit(response)
            else:
                in_task, steps = client._decode_value(response)
                print(
                    render_mapping(
                        "algorithm 1 run:",
                        {"output in R_A": in_task, "steps": steps},
                    )
                )
            return 0
    raise SystemExit(f"unknown query {args.what!r}")


def _certify_affine(args: argparse.Namespace):
    """The affine task a ``certify`` invocation is about."""
    if getattr(args, "wait_free", False):
        return full_affine_task(args.n, args.depth)
    if args.live_sets is None:
        raise SystemExit(
            "certify requires live sets JSON (or --wait-free)"
        )
    adversary = Adversary(
        args.n, [set(live) for live in json.loads(args.live_sets)]
    )
    return r_affine(agreement_function_of(adversary))


def _cmd_certify(args: argparse.Namespace) -> int:
    """One certified FACT query; the certificate is the deliverable.

    The verdict is in the certificate's ``kind``: ``solvable`` /
    ``unsolvable`` carry a complete witness; a ``budget`` stub is
    resumable, not a verdict, and exits non-zero so scripts notice.
    """
    from .certify import cert_to_bytes, write_cert
    from .tasks.set_consensus import set_consensus_task

    affine = _certify_affine(args)
    task = set_consensus_task(args.n, args.k)
    engine = _build_engine(args)
    cert = engine.certify(affine, task, args.budget)
    engine.close()
    if args.output is not None:
        write_cert(args.output, cert)
        print(
            f"wrote {args.output}: kind={cert['kind']} "
            f"({affine.name} / {task.name})"
        )
    else:
        sys.stdout.write(cert_to_bytes(cert).decode("utf-8"))
    return 0 if cert["kind"] in ("solvable", "unsolvable") else 2


def _cmd_check(args: argparse.Namespace) -> int:
    """Validate certificate files; exit 0 iff every file is valid.

    Deliberately trusts nothing but :mod:`repro.certify.checker` — the
    files are read as raw bytes and every claim in them is re-derived by
    the independent checker.
    """
    from .certify import checker

    all_valid = True
    for path in args.certs:
        try:
            with open(path, "rb") as handle:
                report = checker.check_bytes(handle.read())
        except OSError as exc:
            print(f"{path}: unreadable ({exc})", file=sys.stderr)
            all_valid = False
            continue
        all_valid = all_valid and report.valid
        if args.json:
            print(
                json.dumps(
                    {"path": path, **report.to_dict()}, sort_keys=True
                )
            )
        else:
            status = "OK" if report.valid else "INVALID"
            detail = f" ({report.detail})" if report.detail else ""
            print(
                f"{path}: {status} kind={report.kind} "
                f"verdict={report.verdict} reason={report.reason}{detail}"
            )
    return 0 if all_valid else 1


def _sim_adversary(args: argparse.Namespace):
    """The adversary a sim/oracle invocation names, or ``None``."""
    if getattr(args, "live_sets", None) is None:
        return None
    return Adversary(
        args.n, [set(live) for live in json.loads(args.live_sets)]
    )


def _cmd_sim(args: argparse.Namespace) -> int:
    """Explore one protocol instance under generated fault plans.

    Exit 0 means no explored schedule violated the protocol spec —
    exactly the simulator half of the differential oracle, so a
    violating exit 1 on a solvable instance is a bug report.
    """
    from .sim import write_artifact

    engine = _build_engine(args, default_cache=True)
    report = engine.simulate(
        args.protocol,
        _sim_adversary(args),
        n=args.n,
        t=args.t,
        k=args.k,
        schedules=args.schedules,
        seed=args.seed,
    )
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(
            banner(
                f"sim {args.protocol} — n={report['n']}, t={report['t']}, "
                f"k={report['k']}"
            )
        )
        print(
            render_mapping(
                "exploration:",
                {
                    "fault plans": report["plans"],
                    "schedules": report["schedules"],
                    "deliveries": report["deliveries"],
                    "blocked runs": report["blocked_runs"],
                    "violations": report["violations"],
                    "verdict": "pass" if report["pass"] else "VIOLATION",
                },
            )
        )
        violation = report["first_violation"]
        if violation is not None:
            for line in violation["violations"]:
                print(f"violation: {line}")
    if report["first_violation"] is not None and args.artifact is not None:
        write_artifact(args.artifact, report["first_violation"])
        print(f"wrote replay artifact to {args.artifact}", file=sys.stderr)
    engine.close()
    return 0 if report["pass"] else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    """Differential oracle: simulator verdicts versus FACT / regime.

    Without arguments this re-checks the whole committed grid; exit 0
    iff every case agrees.  ``--replay`` re-executes a disagreement
    artifact event for event and exits 0 iff the recorded outcome is
    reproduced exactly.
    """
    from .sim import (
        grid_case,
        load_artifact,
        replay,
        standard_grid,
        write_artifact,
    )

    if args.replay is not None:
        artifact = load_artifact(args.replay)
        outcome = replay(artifact)
        reproduced = (
            outcome["decisions"] == artifact["decisions"]
            and outcome["blocked"] == artifact["blocked"]
            and outcome["violations"] == artifact["violations"]
        )
        if args.json:
            print(
                json.dumps(
                    {"reproduced": reproduced, **outcome}, sort_keys=True
                )
            )
        else:
            print(
                render_mapping(
                    f"replay of {args.replay}:",
                    {
                        "protocol": artifact["protocol"],
                        "decisions": outcome["decisions"],
                        "blocked": outcome["blocked"],
                        "violations": len(outcome["violations"]),
                        "reproduced": "yes" if reproduced else "NO",
                    },
                )
            )
        return 0 if reproduced else 1

    if args.list:
        for case in standard_grid():
            print(
                f"{case.name}: {case.protocol} n={case.n} t={case.t} "
                f"k={case.k}"
            )
        return 0

    try:
        cases = (
            [grid_case(name) for name in args.case]
            if args.case
            else standard_grid()
        )
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]))
    engine = _build_engine(args, default_cache=True)
    reports = engine.oracle_many(case.payload() for case in cases)
    disagreements = 0
    if args.json:
        for case, report in zip(cases, reports):
            print(json.dumps({"case": case.name, **report}, sort_keys=True))
    else:
        rows = []
        for case, report in zip(cases, reports):
            reference = report["reference"]
            rows.append(
                [
                    case.name,
                    reference["method"],
                    "yes" if reference["solvable"] else "no",
                    "pass" if report["sim"]["pass"] else "VIOLATION",
                    "yes" if report["agree"] else "DISAGREE",
                ]
            )
        print(
            render_table(
                ["oracle case", "reference", "solvable", "sim", "agree"],
                rows,
            )
        )
    for case, report in zip(cases, reports):
        if report["agree"]:
            continue
        disagreements += 1
        if report["artifact"] is not None and args.artifact_dir is not None:
            os.makedirs(args.artifact_dir, exist_ok=True)
            path = os.path.join(
                args.artifact_dir, f"disagreement-{case.name}.json"
            )
            write_artifact(path, report["artifact"])
            print(f"wrote replay artifact to {path}", file=sys.stderr)
    engine.close()
    if disagreements:
        print(
            f"oracle: {disagreements} of {len(cases)} cases DISAGREE",
            file=sys.stderr,
        )
        return 1
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    from .solver import KERNELS

    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes (1 = legacy in-process path)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent artifact cache directory",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the artifact cache",
    )
    parser.add_argument(
        "--kernel",
        choices=KERNELS,
        default=None,
        help="solve kernel for FACT queries (implies the engine path)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="JSONL",
        help="enable span tracing and append finished spans to this "
        "JSONL file (env fallback: REPRO_TRACE)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Affine tasks for fair adversaries — paper artifacts from the CLI.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("figures", help="censuses behind Figures 1/4/6/7")

    classify = sub.add_parser("classify", help="Figure-2 classification")
    classify.add_argument("--n", type=int, default=3)
    _add_engine_options(classify)

    landscape = sub.add_parser(
        "landscape", help="the exhaustive n=3 landscape (E15)"
    )
    _add_engine_options(landscape)

    fact = sub.add_parser("fact", help="the FACT set-consensus table (E11)")
    _add_engine_options(fact)

    algorithm1 = sub.add_parser(
        "algorithm1", help="fuzz Algorithm 1 in the α-model (E8)"
    )
    algorithm1.add_argument("--runs", type=int, default=30)
    algorithm1.add_argument("--seed", type=int, default=0)
    _add_engine_options(algorithm1)

    batch = sub.add_parser(
        "batch",
        help="zoo classification + E11 through the compute engine",
    )
    batch.add_argument(
        "--only",
        nargs="+",
        metavar="KIND",
        default=None,
        help="run only the sections for these job kinds "
        "(e.g. --only simulate oracle)",
    )
    _add_engine_options(batch)

    from .sim.library import PROTOCOL_NAMES

    sim = sub.add_parser(
        "sim", help="explore one executable protocol (repro.sim)"
    )
    sim.add_argument("protocol", choices=PROTOCOL_NAMES)
    sim.add_argument(
        "live_sets",
        nargs="?",
        default=None,
        help='adversary live sets JSON (crash-model protocols), '
        'e.g. "[[0],[0,1]]"',
    )
    sim.add_argument("--n", type=int, default=3)
    sim.add_argument(
        "--t", type=int, default=0, help="Byzantine fault budget"
    )
    sim.add_argument(
        "--k", type=int, default=1, help="set-consensus k (hitting-set)"
    )
    sim.add_argument(
        "--schedules",
        type=int,
        default=4,
        help="random schedules per fault plan (targeted ones always run)",
    )
    sim.add_argument("--seed", type=int, default=7)
    sim.add_argument(
        "--json", action="store_true", help="print the raw report object"
    )
    sim.add_argument(
        "--artifact",
        default=None,
        help="write the first violating schedule here as a replay artifact",
    )
    _add_engine_options(sim)

    oracle = sub.add_parser(
        "oracle",
        help="differential oracle: simulator versus FACT verdicts",
    )
    oracle.add_argument(
        "case",
        nargs="*",
        help="grid case names (default: the whole committed grid)",
    )
    oracle.add_argument(
        "--list",
        action="store_true",
        help="list the committed grid cases and exit",
    )
    oracle.add_argument(
        "--json", action="store_true", help="one JSON report per case"
    )
    oracle.add_argument(
        "--artifact-dir",
        default=None,
        help="write disagreement replay artifacts into this directory",
    )
    oracle.add_argument(
        "--replay",
        default=None,
        metavar="ARTIFACT",
        help="re-execute a recorded disagreement artifact instead",
    )
    _add_engine_options(oracle)

    sub.add_parser("crossover", help="ε-agreement depth crossover (E14)")

    inspect = sub.add_parser("inspect", help="classify one adversary")
    inspect.add_argument(
        "live_sets",
        help='JSON list of live sets, e.g. "[[1],[0,2]]"',
    )
    inspect.add_argument("--n", type=int, default=3)
    inspect.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output in the service response schema",
    )

    serve = sub.add_parser(
        "serve", help="run the resident query service (repro.service)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7341, help="0 binds an ephemeral port"
    )
    serve.add_argument(
        "--memcache-size",
        type=_positive_int,
        default=256,
        help="entries in the in-memory LRU of answered value texts",
    )
    serve.add_argument("--max-connections", type=_positive_int, default=64)
    serve.add_argument("--max-inflight", type=_positive_int, default=256)
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        help="default per-request deadline in seconds",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        help="seconds in-flight requests get to finish on shutdown",
    )
    _add_engine_options(serve)

    query = sub.add_parser(
        "query", help="issue one query against a running service"
    )
    query.add_argument(
        "what",
        choices=[
            "ping",
            "stats",
            "metrics",
            "chr",
            "classify",
            "r_affine",
            "solve",
            "certify",
            "fuzz",
            "simulate",
            "oracle",
        ],
    )
    query.add_argument(
        "live_sets",
        nargs="?",
        default=None,
        help="JSON live sets (classify / r_affine / solve / certify / fuzz)",
    )
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, default=7341)
    query.add_argument("--timeout", type=float, default=60.0)
    query.add_argument("--n", type=int, default=3)
    query.add_argument("--depth", type=int, default=1, help="chr depth m")
    query.add_argument(
        "--k", type=int, default=2, help="set-consensus k for solve"
    )
    query.add_argument("--budget", type=int, default=None)
    query.add_argument("--seed", type=int, default=0, help="fuzz case seed")
    query.add_argument(
        "--protocol",
        choices=PROTOCOL_NAMES,
        default="hitting-set-consensus",
        help="sim protocol (query simulate / oracle)",
    )
    query.add_argument(
        "--t",
        type=int,
        default=0,
        help="Byzantine fault budget (query simulate / oracle)",
    )
    query.add_argument(
        "--schedules",
        type=int,
        default=4,
        help="random schedules per fault plan (query simulate / oracle)",
    )
    query.add_argument(
        "--json",
        action="store_true",
        help="print the raw wire response instead of a rendering",
    )
    query.add_argument(
        "--output",
        default=None,
        help="write a fetched certificate to this file (query certify)",
    )

    certify = sub.add_parser(
        "certify",
        help="one certified FACT query -> a portable certificate file",
    )
    certify.add_argument(
        "live_sets",
        nargs="?",
        default=None,
        help='JSON list of live sets, e.g. "[[1],[0,2]]"',
    )
    certify.add_argument(
        "--wait-free",
        action="store_true",
        help="certify against the wait-free task Chr^depth s instead",
    )
    certify.add_argument("--n", type=int, default=3)
    certify.add_argument(
        "--depth", type=int, default=1, help="subdivision depth (--wait-free)"
    )
    certify.add_argument(
        "--k", type=int, default=2, help="set-consensus k to certify"
    )
    certify.add_argument(
        "--budget",
        type=int,
        default=None,
        help="node budget; overruns yield a resumable stub (exit 2)",
    )
    certify.add_argument(
        "--output", default=None, help="certificate file (default: stdout)"
    )
    _add_engine_options(certify)

    check = sub.add_parser(
        "check",
        help="validate certificate files with the independent checker",
    )
    check.add_argument(
        "certs", nargs="+", help="certificate JSON files to validate"
    )
    check.add_argument(
        "--json",
        action="store_true",
        help="one JSON report object per line instead of a rendering",
    )

    sweep = sub.add_parser(
        "sweep",
        help="run or resume a checkpointed landscape sweep (repro.sweep)",
    )
    sweep.add_argument(
        "--grid",
        required=True,
        help="grid preset name (e.g. n3-smoke, n4-sampled) or a grid "
        "JSON file",
    )
    sweep.add_argument(
        "--checkpoint-dir",
        required=True,
        help="directory for the grid document and per-cell resume stubs",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="continue from existing checkpoints instead of refusing",
    )
    sweep.add_argument(
        "--limit",
        type=_positive_int,
        default=None,
        help="compute at most this many new cells, then exit 2",
    )
    sweep.add_argument(
        "--escalate",
        type=_positive_int,
        default=None,
        help="after completion, re-run budget cells at budget * 2^LEVEL",
    )
    sweep.add_argument(
        "--output",
        default=None,
        help="write the landscape artifact here once the grid completes",
    )
    _add_engine_options(sweep)

    export = sub.add_parser(
        "export", help="dump all figure data as JSON"
    )
    export.add_argument("--output", default=None, help="file path (default: stdout)")

    from .obs.summary import SORT_KEYS

    trace = sub.add_parser(
        "trace", help="summarize a JSONL trace file (repro.obs)"
    )
    trace.add_argument(
        "trace_file", help="trace written by --trace / REPRO_TRACE"
    )
    trace.add_argument(
        "--sort",
        choices=SORT_KEYS,
        default="total_s",
        help="order the per-span-kind table by this column",
    )
    trace.add_argument(
        "--limit",
        type=int,
        default=0,
        help="show at most this many span kinds (0 = all)",
    )
    trace.add_argument(
        "--json",
        action="store_true",
        help="emit the summary as one JSON object instead of a table",
    )
    return parser


def _cmd_export(args: argparse.Namespace) -> int:
    from .analysis.figure_data import export_json

    payload = export_json(args.output)
    if args.output is None:
        print(payload)
    else:
        print(f"wrote {args.output}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Summarize a JSONL trace: per-span-kind latency breakdown."""
    from . import obs

    try:
        spans = obs.load_spans(args.trace_file)
    except OSError as exc:
        raise SystemExit(f"cannot read {args.trace_file}: {exc}")
    summary = obs.summarize(spans)
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(obs.render_summary(summary, sort=args.sort, limit=args.limit))
    return 0


_HANDLERS = {
    "batch": _cmd_batch,
    "export": _cmd_export,
    "serve": _cmd_serve,
    "query": _cmd_query,
    "figures": _cmd_figures,
    "classify": _cmd_classify,
    "landscape": _cmd_landscape,
    "fact": _cmd_fact,
    "algorithm1": _cmd_algorithm1,
    "crossover": _cmd_crossover,
    "inspect": _cmd_inspect,
    "certify": _cmd_certify,
    "check": _cmd_check,
    "sim": _cmd_sim,
    "oracle": _cmd_oracle,
    "sweep": _cmd_sweep,
    "trace": _cmd_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Downstream closed the pipe (`repro trace ... | head`): stop
        # quietly instead of dumping a traceback.  Redirect stdout to
        # devnull so the interpreter's exit-time flush can't re-raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None) or os.environ.get(
        "REPRO_TRACE"
    )
    if args.command == "trace" or not trace_path:
        return _HANDLERS[args.command](args)
    # Traced run: every span the command produces — including spans
    # shipped back from worker processes — lands in one JSONL file.
    from . import obs

    tracer = obs.enable()
    try:
        return _HANDLERS[args.command](args)
    finally:
        count = obs.export_jsonl(trace_path, tracer.drain())
        obs.disable()
        print(f"trace: wrote {count} spans to {trace_path}", file=sys.stderr)
        if count == 0:
            # Tracing never reroutes the computation, so the legacy
            # direct paths (no engine opt-in) produce no spans.
            print(
                "trace: 0 spans means the command ran on the legacy "
                "direct path; add an engine opt-in (--jobs, "
                "--cache-dir, --no-cache with batch, or --kernel) "
                "to trace it.",
                file=sys.stderr,
            )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

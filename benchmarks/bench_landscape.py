"""E15 — the complete 3-process adversary landscape.

Exhaustive classification of all 127 adversaries over three processes:
fairness coverage, the Figure-2 region populations, the agreement-power
histogram, and the collapse of the fair class into 37 distinct
agreement functions — each inducing a *distinct* affine task (the map
α ↦ R_A is injective on this landscape).
"""

from repro.analysis import render_mapping, render_table
from repro.analysis.landscape import classify_all, fair_task_classes, summarize


def bench_classify_all(benchmark):
    entries = benchmark(classify_all, 3)
    assert len(entries) == 127


def bench_landscape_summary(benchmark):
    entries = classify_all(3)
    summary = benchmark(summarize, entries)
    print()
    print(
        render_mapping(
            "n=3 landscape:",
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
    assert summary.total == 127
    assert summary.fair == 43
    assert summary.superset_closed == 18
    assert summary.symmetric == 7
    assert summary.power_histogram == {1: 63, 2: 63, 3: 1}
    assert summary.distinct_alphas_fair == 37
    # The injectivity observation:
    assert summary.distinct_affine_tasks == 37


def bench_classify_all_engine_warm(benchmark, tmp_path):
    """The same census through the engine against a warm artifact cache."""
    from repro.engine import ArtifactCache, Engine

    cache_dir = tmp_path / "landscape-cache"
    default = classify_all(3)  # in-process Engine(), no cache
    Engine(cache=ArtifactCache(cache_dir)).classify_many(
        [entry.adversary for entry in default]
    )

    def classify_warm():
        return classify_all(3, engine=Engine(cache=ArtifactCache(cache_dir)))

    entries = benchmark(classify_warm)
    assert entries == default


def bench_model_order(benchmark):
    """The inclusion partial order on the 37 fair model classes."""
    from repro.analysis.model_order import summarize_order

    summary = benchmark.pedantic(
        summarize_order, args=(3,), rounds=1, iterations=1
    )
    print()
    print(
        render_mapping(
            "fair-model order (n=3):",
            {
                "classes": summary.classes,
                "comparable pairs": summary.comparable_pairs,
                "Hasse edges": summary.hasse_edges,
                "longest chain": summary.longest_chain_length,
                "max antichain": summary.maximal_antichain,
                "facet range": (summary.minimum_facets, summary.maximum_facets),
                "inclusion respects setcon": summary.power_respected,
            },
        )
    )
    assert summary.classes == 37
    assert summary.power_respected


def bench_fair_task_classes(benchmark):
    classes = benchmark(fair_task_classes, 3)
    sizes = sorted(
        (len(members) for members in classes.values()), reverse=True
    )
    facet_counts = sorted(
        len(task.complex.facets) for task in classes
    )
    print()
    print(
        render_table(
            ["statistic", "value"],
            [
                ["R_A equivalence classes", len(classes)],
                ["class sizes (desc)", sizes[:10]],
                ["smallest R_A (facets)", facet_counts[0]],
                ["largest R_A (facets)", facet_counts[-1]],
            ],
        )
    )
    assert sum(len(m) for m in classes.values()) == 43
    assert facet_counts[-1] == 169  # the wait-free class

"""Unit tests for R_A (Definition 9) — the paper's central construction."""

import pytest

from repro.adversaries import (
    agreement_function_of,
    figure5b_adversary,
    is_fair,
    k_concurrency_alpha,
    unfair_example,
)
from repro.analysis.landscape import all_adversaries, alpha_signature
from repro.core.ra import (
    DEFAULT_VARIANT,
    RABuilder,
    contention_table,
    r_affine,
    r_affine_of_adversary,
)
from repro.sweep.driver import sample_adversaries
from repro.topology import chr_complex


def test_default_variant_is_union():
    """The computational disambiguation of Definition 9 (E9)."""
    assert DEFAULT_VARIANT == "union"


def test_wait_free_ra_is_everything(alpha_wf, chr2):
    assert r_affine(alpha_wf).complex == chr2


def test_figure7a_facet_count(ra_1of):
    """Figure 7a: R_A for alpha(P)=min(|P|,1) has 73 facets."""
    assert len(ra_1of.complex.facets) == 73


def test_figure7b_facet_count(ra_fig5b):
    """Figure 7b: the running example's affine task."""
    assert len(ra_fig5b.complex.facets) == 145


def test_ra_1res_facet_count(ra_1res):
    assert len(ra_1res.complex.facets) == 142


def test_ra_is_pure(ra_1of, ra_fig5b, ra_1res):
    for task in (ra_1of, ra_fig5b, ra_1res):
        assert task.complex.is_pure(2)


def test_ra_nonempty_for_all_zoo_models(
    alpha_1of, alpha_2of, alpha_1res, alpha_fig5b, alpha_wf
):
    for alpha in (alpha_1of, alpha_2of, alpha_1res, alpha_fig5b, alpha_wf):
        assert not r_affine(alpha).complex.complex.is_empty()


def test_ra_monotone_in_alpha():
    """Pointwise-larger agreement functions keep more facets."""
    weaker = r_affine(k_concurrency_alpha(3, 1))
    stronger = r_affine(k_concurrency_alpha(3, 2))
    everything = r_affine(k_concurrency_alpha(3, 3))
    assert weaker.complex.complex.is_sub_complex_of(stronger.complex.complex)
    assert stronger.complex.complex.is_sub_complex_of(
        everything.complex.complex
    )


def test_ra_of_adversary_matches_alpha_route():
    adversary = figure5b_adversary()
    via_adversary = r_affine_of_adversary(adversary)
    via_alpha = r_affine(agreement_function_of(adversary))
    assert via_adversary.complex == via_alpha.complex


def test_ra_intersection_variant_is_smaller(alpha_1res):
    union = r_affine(alpha_1res, "union")
    inter = r_affine(alpha_1res, "intersection")
    assert inter.complex.complex.is_sub_complex_of(union.complex.complex)


def test_builder_guard_semantics(alpha_1of, chr2):
    builder = RABuilder(alpha_1of, "union")
    facet = next(iter(chr2.facets))
    rho = frozenset().union(*(v.carrier for v in facet))
    # The guard must be monotone: colors covered by CSM ∪ CSV escape it.
    csm = builder.structure.csm_colors(rho)
    if csm:
        color = next(iter(csm))
        assert not builder.guard_blocks_reliance(
            frozenset({color}), rho, rho
        )


def test_ra_defined_for_unfair_adversaries_too():
    """The construction is total; capture is only claimed for fair ones."""
    task = r_affine_of_adversary(unfair_example())
    assert task.complex.is_pure(2)


def test_ra_synchronized_runs_always_survive(ra_1of, ra_1res, ra_fig5b):
    """The fully synchronous 2-round run has no contention and belongs
    to every R_A."""
    from repro.runtime.iis import run_iis

    sync = run_iis(
        3, [(frozenset({0, 1, 2}),), (frozenset({0, 1, 2}),)]
    ).facet()
    for task in (ra_1of, ra_1res, ra_fig5b):
        assert sync in task.complex


# ------------------------------------------ the contention-table fold
def _definition(alpha, variant, n):
    """Definition 9 face by face over ``Chr² s``, in its facet order."""
    builder = RABuilder(alpha, variant)
    return [f for f in chr_complex(n, 2).facets if builder.facet_allowed(f)]


def _n3_alphas():
    alphas = {}
    for adversary in all_adversaries(3):
        alpha = agreement_function_of(adversary)
        alphas.setdefault(alpha_signature(alpha), alpha)
    return [alphas[key] for key in sorted(alphas)]


@pytest.mark.parametrize("variant", ["union", "intersection"])
def test_table_fold_is_definition_9_for_every_n3_alpha(variant):
    alphas = _n3_alphas()
    assert len(alphas) == 37
    for alpha in alphas:
        kept = RABuilder(alpha, variant).kept_facets(3)
        assert kept == _definition(alpha, variant, 3)


def _fair_n4_alphas():
    return [
        agreement_function_of(adversary)
        for adversary in sample_adversaries(4, 11, 24)
        if is_fair(adversary)
    ]


@pytest.mark.parametrize("index", [0, 1])
def test_table_fold_is_definition_9_at_n4(index):
    alpha = _fair_n4_alphas()[index]
    kept = RABuilder(alpha).kept_facets(4)
    assert 0 < len(kept) < len(chr_complex(4, 2).facets)
    assert kept == _definition(alpha, DEFAULT_VARIANT, 4)


def test_contention_table_shape():
    """One row per ``Chr²`` facet, its singletons first; the carriers
    are the facets of ``Chr s`` and the contention faces' carriers."""
    for n, rhos, taus in ((3, 13, 49), (4, 75, 415)):
        table = contention_table(n)
        assert table.facets == tuple(chr_complex(n, 2).facets)
        assert (len(table.rhos), len(table.taus)) == (rhos, taus)
        assert set(table.rhos) == set(chr_complex(n, 1).facets)
        for facet, (_, thetas) in zip(table.facets, table.rows):
            assert [d for _, d, _ in thetas[:n]] == [0] * n
            assert sorted(c for c, d, _ in thetas if d == 0) == [
                1 << v.color for v in sorted(facet)
            ]


def test_ra_validation_builds_no_closure_of_its_own(alpha_fig5b):
    """``AffineTask`` checks ``R_A``'s facets against ``Chr²``'s closure
    and leaves ``R_A``'s own closure unbuilt until something asks."""
    task = r_affine(alpha_fig5b)
    assert task.complex.complex._simplices is None

"""Derived analyses: censuses, compactness, Sperner parity, reporting.

:mod:`~repro.analysis.figure_geometry` and
:mod:`~repro.analysis.model_order` pull in numpy and networkx; their
callers import those submodules directly.
"""

from .stats import (
    compare_affine_tasks,
    complex_census,
    facet_share,
    facets_by_color_census,
    inclusion_matrix,
    vertices_by_witnessed_size,
)
from .compactness import (
    affine_model_is_prefix_closed,
    bounded_round_solvability,
    obstruction_free_witness,
    solo_run_prefixes_comply_one_resilient,
)
from .sperner import (
    admissible_labelings_domain,
    fuzz_sperner,
    is_admissible,
    panchromatic_facets,
    random_admissible_labeling,
    sperner_parity_holds,
)
from .landscape import (
    LandscapeEntry,
    LandscapeSummary,
    all_adversaries,
    alpha_signature,
    classify_all,
    fair_task_classes,
    summarize,
)
from .figure_data import (
    all_figure_data,
    export_json,
    fact_table_data,
    landscape_data,
)
from .reporting import banner, render_check, render_mapping, render_table

__all__ = [
    "LandscapeEntry",
    "LandscapeSummary",
    "all_adversaries",
    "alpha_signature",
    "classify_all",
    "fair_task_classes",
    "summarize",
    "compare_affine_tasks",
    "complex_census",
    "facet_share",
    "facets_by_color_census",
    "inclusion_matrix",
    "vertices_by_witnessed_size",
    "affine_model_is_prefix_closed",
    "bounded_round_solvability",
    "obstruction_free_witness",
    "solo_run_prefixes_comply_one_resilient",
    "admissible_labelings_domain",
    "fuzz_sperner",
    "is_admissible",
    "panchromatic_facets",
    "random_admissible_labeling",
    "sperner_parity_holds",
    "all_figure_data",
    "export_json",
    "fact_table_data",
    "landscape_data",
    "banner",
    "render_check",
    "render_mapping",
    "render_table",
]

"""Combinatorial-topology substrate: complexes, subdivisions, maps.

This package implements, from scratch, the topological language of
Herlihy–Shavit style computability theory used by the paper:
simplicial and chromatic complexes, the standard chromatic subdivision
``Chr`` and its iterations, carriers, simplicial/carrier maps, geometric
realizations and (link-)connectivity analysis.

The numeric submodules — :mod:`~repro.topology.geometry` (numpy) and
:mod:`~repro.topology.connectivity` (numpy, networkx) — are imported by
their callers directly, so ``import repro`` loads neither library.
"""

from .simplex import (
    EMPTY_SIMPLEX,
    Simplex,
    Vertex,
    boundary,
    closure_of,
    dim,
    faces,
    is_face,
    is_proper_face,
    proper_faces,
    simplex,
    vertices_of,
)
from .complex import SimplicialComplex, closure, standard_simplex_complex
from .chromatic import (
    ChromaticComplex,
    ChrVertex,
    ColorSet,
    ProcessId,
    chi,
    color_of,
    is_rainbow,
    standard_simplex,
)
from .enumeration import (
    all_is_views,
    chr_facet_to_partition,
    fubini_number,
    is_valid_is_views,
    ordered_set_partitions,
    partition_to_chr_facet,
    views_of_partition,
)
from .subdivision import (
    carrier,
    carrier_colors,
    carrier_in_s,
    carrier_of_vertex,
    chr_complex,
    chromatic_subdivision,
    iterated_subdivision,
    own_vertex_in_carrier,
    subdivide_simplex,
    subdivision_restricted_to,
)
from .maps import CarrierMap, SimplicialMap, carrier_projection, identity_map
from .projection import (
    carrier_projection_map,
    project_to_base,
    project_vertex,
)
from .constructions import (
    cone,
    disjoint_union,
    join,
    sphere,
    suspension,
)
__all__ = [
    "EMPTY_SIMPLEX",
    "Simplex",
    "Vertex",
    "boundary",
    "closure_of",
    "dim",
    "faces",
    "is_face",
    "is_proper_face",
    "proper_faces",
    "simplex",
    "vertices_of",
    "SimplicialComplex",
    "closure",
    "standard_simplex_complex",
    "ChromaticComplex",
    "ChrVertex",
    "ColorSet",
    "ProcessId",
    "chi",
    "color_of",
    "is_rainbow",
    "standard_simplex",
    "all_is_views",
    "chr_facet_to_partition",
    "fubini_number",
    "is_valid_is_views",
    "ordered_set_partitions",
    "partition_to_chr_facet",
    "views_of_partition",
    "carrier",
    "carrier_colors",
    "carrier_in_s",
    "carrier_of_vertex",
    "chr_complex",
    "chromatic_subdivision",
    "iterated_subdivision",
    "own_vertex_in_carrier",
    "subdivide_simplex",
    "subdivision_restricted_to",
    "CarrierMap",
    "SimplicialMap",
    "carrier_projection",
    "identity_map",
    "carrier_projection_map",
    "project_to_base",
    "project_vertex",
    "cone",
    "disjoint_union",
    "join",
    "sphere",
    "suspension",
]

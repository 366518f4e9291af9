"""Unit tests for repro.topology.complex (SimplicialComplex)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.complex import (
    SimplicialComplex,
    closure,
    standard_simplex_complex,
)


@pytest.fixture
def triangle():
    return SimplicialComplex([frozenset({0, 1, 2})])


@pytest.fixture
def two_triangles():
    """Two triangles glued along the edge {1, 2}."""
    return SimplicialComplex([{0, 1, 2}, {1, 2, 3}])


def test_facets_absorb_subsumed_inputs():
    K = SimplicialComplex([{0, 1}, {0, 1, 2}])
    assert K.facets == frozenset({frozenset({0, 1, 2})})


def test_simplices_of_triangle(triangle):
    assert len(triangle.simplices) == 7  # 3 + 3 + 1


def test_vertices(two_triangles):
    assert two_triangles.vertices == frozenset({0, 1, 2, 3})


def test_dimension(two_triangles):
    assert two_triangles.dimension == 2
    assert SimplicialComplex([]).dimension == -1


def test_contains_faces(triangle):
    assert {0, 1} in triangle
    assert {0, 3} not in triangle
    assert frozenset() not in triangle


def test_equality_and_hash():
    a = SimplicialComplex([{0, 1}])
    b = SimplicialComplex([{0, 1}, {1}])
    assert a == b
    assert hash(a) == hash(b)


def test_is_pure(two_triangles):
    assert two_triangles.is_pure()
    assert two_triangles.is_pure(2)
    assert not two_triangles.is_pure(1)
    mixed = SimplicialComplex([{0, 1, 2}, {3, 4}])
    assert not mixed.is_pure()


def test_empty_complex_is_pure():
    assert SimplicialComplex([]).is_pure()


def test_is_facet(two_triangles):
    assert two_triangles.is_facet({0, 1, 2})
    assert not two_triangles.is_facet({1, 2})


def test_simplices_of_dim(two_triangles):
    assert len(two_triangles.simplices_of_dim(0)) == 4
    assert len(two_triangles.simplices_of_dim(1)) == 5
    assert len(two_triangles.simplices_of_dim(2)) == 2


def test_f_vector(two_triangles):
    assert two_triangles.f_vector() == [4, 5, 2]


def test_star_contains_cofaces(two_triangles):
    star = two_triangles.star([{1, 2}])
    assert frozenset({0, 1, 2}) in star
    assert frozenset({1, 2, 3}) in star
    assert frozenset({1, 2}) in star
    assert frozenset({0}) not in star


def test_link_of_shared_edge(two_triangles):
    link = two_triangles.link({1, 2})
    assert link.vertices == frozenset({0, 3})
    assert link.dimension == 0


def test_link_of_vertex(two_triangles):
    link = two_triangles.link({1})
    # Vertices 0, 2, 3 with edges {0,2} and {2,3}.
    assert frozenset({0, 2}) in link
    assert frozenset({2, 3}) in link
    assert frozenset({0, 3}) not in link


def test_skeleton(two_triangles):
    skel = two_triangles.skeleton(1)
    assert skel.dimension == 1
    assert len(skel.simplices_of_dim(1)) == 5
    assert two_triangles.skeleton(-1).is_empty()


def test_pure_complement_removes_touching_facets(two_triangles):
    pc = two_triangles.pure_complement([{0}])
    assert pc.facets == frozenset({frozenset({1, 2, 3})})


def test_pure_complement_keeps_dimension():
    K = SimplicialComplex([{0, 1, 2}, {3, 4}])
    pc = K.pure_complement([{9}])
    # Only top-dimensional facets are kept.
    assert pc.facets == frozenset({frozenset({0, 1, 2})})


def test_pure_complement_empty_when_all_touched(triangle):
    assert triangle.pure_complement([{0}, {1}, {2}]).is_empty()


def test_restrict(two_triangles):
    sub = two_triangles.restrict({0, 1, 2})
    assert sub.facets == frozenset({frozenset({0, 1, 2})})


def test_sub_complex_predicate(two_triangles):
    sub = two_triangles.sub_complex(lambda sigma: 3 not in sigma)
    assert frozenset({1, 2, 3}) not in sub.simplices
    assert frozenset({0, 1, 2}) in sub.simplices


def test_union_intersection(triangle):
    other = SimplicialComplex([{2, 3}])
    union = triangle.union(other)
    assert {2, 3} in union and {0, 1, 2} in union
    inter = union.intersection(triangle)
    assert inter == triangle


def test_is_sub_complex_of(two_triangles, triangle):
    assert triangle.is_sub_complex_of(two_triangles)
    assert not two_triangles.is_sub_complex_of(triangle)


@pytest.mark.parametrize(
    "facets, expected",
    [
        # A proper sub-complex: one triangle and a pendant edge of it.
        ([{0, 1, 2}, {2, 3}], True),
        # The edge {0, 3} is a face of neither triangle.
        ([{0, 1, 2}, {0, 3}], False),
        # A facet that is a proper face of one of ``other``'s facets.
        ([{1, 2}], True),
        ([{0, 1, 2, 3}], False),
    ],
)
def test_is_sub_complex_of_checks_facets_against_the_closure(
    two_triangles, facets, expected
):
    """The answer is the one the whole closure would give."""
    candidate = SimplicialComplex(facets)
    assert candidate.is_sub_complex_of(two_triangles) is expected
    assert candidate._simplices is None  # its own closure never built
    assert (candidate.simplices <= two_triangles.simplices) is expected


def test_closure_helper():
    K = closure([{1, 2, 3}])
    assert {1, 3} in K


def test_standard_simplex_complex():
    K = standard_simplex_complex(4)
    assert K.dimension == 3
    assert len(K.simplices) == 2**4 - 1
    with pytest.raises(ValueError):
        standard_simplex_complex(0)


# ----------------------------------------------------------------------
# The bucketed maximality filter against the quadratic one
# ----------------------------------------------------------------------
def _quadratic_facets(simplices):
    """The filter ``SimplicialComplex`` used before bucketing: every
    candidate compared with every facet kept so far."""
    candidates = sorted(
        {frozenset(s) for s in simplices if s}, key=len, reverse=True
    )
    facets = []
    for sigma in candidates:
        if not any(sigma < other or sigma == other for other in facets):
            facets.append(sigma)
    return frozenset(facets)


def _faces_closure(facets):
    from repro.topology.simplex import faces

    return frozenset(face for facet in facets for face in faces(facet))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.frozensets(st.integers(0, 9), min_size=0, max_size=6),
        max_size=40,
    )
)
def test_maximality_filter_matches_quadratic(simplices):
    K = SimplicialComplex(simplices)
    assert K.facets == _quadratic_facets(simplices)
    assert K.simplices == _faces_closure(K.facets)


def test_pure_input_keeps_every_facet():
    from repro.topology import chr_complex

    facets = chr_complex(3, 2).facets
    assert SimplicialComplex(facets).facets == facets

"""Abstract simplicial complexes.

A :class:`SimplicialComplex` is stored by its facets (maximal simplices)
and materializes the full face poset lazily.  It implements exactly the
operators the paper relies on:

* closure ``Cl`` (:meth:`SimplicialComplex.closure`),
* star ``St`` (:meth:`SimplicialComplex.star`),
* link (:meth:`SimplicialComplex.link`),
* k-skeleton ``Skel^k`` (:meth:`SimplicialComplex.skeleton`),
* pure complement ``Pc`` (:meth:`SimplicialComplex.pure_complement`),
  the construct introduced in Section 2 of the paper,
* purity and dimension queries.

Simplices are ``frozenset`` objects (see :mod:`repro.topology.simplex`).
"""

from __future__ import annotations

from itertools import combinations
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
)

from .simplex import Simplex, Vertex, dim, faces


def _maximal(candidates: Set[Simplex]) -> FrozenSet[Simplex]:
    """The inclusion-maximal members of a set of distinct simplices.

    Candidates are taken largest first, and each is compared only with
    the strictly larger facets kept so far that contain one chosen
    member vertex (any superset must contain it): a pure input, whose
    candidates all have one size, costs a single pass.
    """
    facets: List[Simplex] = []
    #: vertex -> kept facets holding it, largest first.
    incident: Dict[Vertex, List[Simplex]] = {}
    for sigma in sorted(candidates, key=len, reverse=True):
        size = len(sigma)
        if facets and len(facets[0]) > size:
            pivot = min(sigma, key=lambda v: len(incident.get(v, ())))
            absorbed = False
            for other in incident.get(pivot, ()):
                if len(other) <= size:
                    break
                if sigma < other:
                    absorbed = True
                    break
            if absorbed:
                continue
        facets.append(sigma)
        for vertex in sigma:
            incident.setdefault(vertex, []).append(sigma)
    return frozenset(facets)


class SimplicialComplex:
    """A finite abstract simplicial complex, represented by its facets.

    Parameters
    ----------
    simplices:
        Any iterable of simplices (vertex ``frozenset``/sets).  The
        complex is their downward closure; non-maximal input simplices
        are absorbed into facets.

    Notes
    -----
    Instances are immutable and hashable-by-identity; equality compares
    the simplex sets.
    """

    def __init__(self, simplices: Iterable[Iterable[Vertex]]):
        self._facets: FrozenSet[Simplex] = _maximal(
            {frozenset(sigma) for sigma in simplices if sigma}
        )
        self._simplices: Optional[FrozenSet[Simplex]] = None
        self._vertices: Optional[FrozenSet[Vertex]] = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def facets(self) -> FrozenSet[Simplex]:
        """The maximal simplices of the complex."""
        return self._facets

    @property
    def simplices(self) -> FrozenSet[Simplex]:
        """All non-empty simplices (the downward closure of the facets)."""
        if self._simplices is None:
            closed: Set[Simplex] = set()
            for facet in self._facets:
                members = tuple(facet)
                for size in range(1, len(members) + 1):
                    closed.update(map(frozenset, combinations(members, size)))
            self._simplices = frozenset(closed)
        return self._simplices

    @property
    def vertices(self) -> FrozenSet[Vertex]:
        """The vertex set of the complex."""
        if self._vertices is None:
            collected: Set[Vertex] = set()
            for facet in self._facets:
                collected.update(facet)
            self._vertices = frozenset(collected)
        return self._vertices

    @property
    def dimension(self) -> int:
        """Maximum simplex dimension; ``-1`` for the empty complex."""
        if not self._facets:
            return -1
        return max(dim(facet) for facet in self._facets)

    def __contains__(self, sigma: Iterable[Vertex]) -> bool:
        sigma = frozenset(sigma)
        if not sigma:
            return False
        return any(sigma <= facet for facet in self._facets)

    def __len__(self) -> int:
        return len(self.simplices)

    def __iter__(self) -> Iterator[Simplex]:
        return iter(self.simplices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._facets == other._facets

    def __hash__(self) -> int:
        return hash(self._facets)

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex(dim={self.dimension}, "
            f"vertices={len(self.vertices)}, facets={len(self._facets)})"
        )

    # ------------------------------------------------------------------
    # Structural predicates
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        """True when the complex has no simplices."""
        return not self._facets

    def is_pure(self, dimension: Optional[int] = None) -> bool:
        """True when every facet has the same dimension.

        When ``dimension`` is given, additionally require that common
        facet dimension to equal it.
        """
        if not self._facets:
            return True
        dims = {dim(facet) for facet in self._facets}
        if len(dims) != 1:
            return False
        if dimension is not None:
            return dims == {dimension}
        return True

    def is_facet(self, sigma: Iterable[Vertex]) -> bool:
        """``facet(sigma, K)``: is ``sigma`` maximal in this complex?"""
        return frozenset(sigma) in self._facets

    def simplices_of_dim(self, d: int) -> FrozenSet[Simplex]:
        """All simplices of dimension exactly ``d``."""
        return frozenset(sigma for sigma in self.simplices if dim(sigma) == d)

    def f_vector(self) -> List[int]:
        """The f-vector: entry ``d`` counts simplices of dimension ``d``."""
        if self.is_empty():
            return []
        counts = [0] * (self.dimension + 1)
        for sigma in self.simplices:
            counts[dim(sigma)] += 1
        return counts

    # ------------------------------------------------------------------
    # Operators from the paper
    # ------------------------------------------------------------------
    def star(self, simplices: Iterable[Iterable[Vertex]]) -> FrozenSet[Simplex]:
        """``St(S, K)``: all simplices of ``K`` having a face in ``S``.

        Following the paper, the star is the *set* of simplices
        ``{sigma in K | faces(sigma) ∩ S != ∅}`` — not necessarily a
        complex.
        """
        targets = {frozenset(sigma) for sigma in simplices}
        return frozenset(
            sigma
            for sigma in self.simplices
            if any(face in targets for face in faces(sigma))
        )

    def link(self, tau: Iterable[Vertex]) -> "SimplicialComplex":
        """The link of ``tau``: ``{sigma | sigma ∩ tau = ∅, sigma ∪ tau ∈ K}``."""
        tau = frozenset(tau)
        members = [
            sigma
            for sigma in self.simplices
            if not (sigma & tau) and (sigma | tau) in self
        ]
        return SimplicialComplex(members)

    def skeleton(self, k: int) -> "SimplicialComplex":
        """``Skel^k K``: the sub-complex of simplices of dimension <= k."""
        if k < 0:
            return SimplicialComplex([])
        return SimplicialComplex(
            sigma for sigma in self.simplices if dim(sigma) <= k
        )

    def pure_complement(
        self, simplices: Iterable[Iterable[Vertex]]
    ) -> "SimplicialComplex":
        """``Pc(S, K)`` (Section 2 of the paper).

        The maximal pure sub-complex of ``K`` of the same dimension as
        ``K`` that does not intersect ``S``:
        ``Cl({sigma in facets(K) | faces(sigma) ∩ S = ∅})``.

        Only facets of top dimension are retained so that the result is
        pure of ``K``'s dimension.
        """
        targets = {frozenset(sigma) for sigma in simplices}
        top = self.dimension
        kept = [
            facet
            for facet in self._facets
            if dim(facet) == top
            and not any(face in targets for face in faces(facet))
        ]
        return SimplicialComplex(kept)

    def restrict(self, allowed_vertices: Iterable[Vertex]) -> "SimplicialComplex":
        """The full sub-complex induced on a vertex subset."""
        allowed = frozenset(allowed_vertices)
        members = [sigma for sigma in self.simplices if sigma <= allowed]
        return SimplicialComplex(members)

    def sub_complex(
        self, predicate: Callable[[Simplex], bool]
    ) -> "SimplicialComplex":
        """Downward closure of the simplices satisfying ``predicate``."""
        return SimplicialComplex(
            sigma for sigma in self.simplices if predicate(sigma)
        )

    def union(self, other: "SimplicialComplex") -> "SimplicialComplex":
        """Union of two complexes (closure of the facet union)."""
        return SimplicialComplex(list(self._facets) + list(other._facets))

    def intersection(self, other: "SimplicialComplex") -> "SimplicialComplex":
        """Intersection of two complexes."""
        return SimplicialComplex(self.simplices & other.simplices)

    def is_sub_complex_of(self, other: "SimplicialComplex") -> bool:
        """True when every simplex of this complex belongs to ``other``."""
        simplices = other.simplices
        return all(facet in simplices for facet in self._facets)


def closure(simplices: Iterable[Iterable[Vertex]]) -> SimplicialComplex:
    """``Cl(S)``: the complex formed by all faces of simplices in ``S``."""
    return SimplicialComplex(simplices)


def standard_simplex_complex(n: int) -> SimplicialComplex:
    """The standard ``(n-1)``-simplex on vertices ``0..n-1`` as a complex."""
    if n <= 0:
        raise ValueError("the standard simplex needs at least one vertex")
    return SimplicialComplex([frozenset(range(n))])

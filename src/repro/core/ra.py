"""``R_A``: the affine task of a fair adversary (Definition 9).

A facet ``sigma`` of ``Chr² s`` belongs to ``R_A`` iff every face
``theta ⊆ sigma`` satisfies the predicate ``P(theta, sigma)``: writing
``tau = carrier(theta, Chr s)`` and ``rho = carrier(sigma, Chr s)``,

    ``theta in Cont2`` and ``theta`` cannot rely on critical simplices
    (the *guard*)  ==>  ``dim(theta) < Conc_alpha(tau)``.

Intuitively: any mutually-contending set of processes that is neither
made of critical members nor covered by a critical simplex's view must
be small enough to solve set consensus on its own.

**Guard variants.**  The paper states the guard as the triple
intersection ``chi(theta) ∩ chi(CSM(rho)) ∩ chi(CSV(tau)) = ∅``
(Definition 9) but manipulates it as
``chi(theta) ∩ (chi(CSM(rho)) ∪ chi(CSV(tau))) = ∅`` in the safety
proof (Lemma 6) and in Property 10's proof.  Both are implemented.

Computational disambiguation (experiment E9, ``guard_variant_report``):
under the *union* reading, ``R_A`` coincides exactly with
``R_{t-res}`` for every ``t`` and with ``R_{k-OF}`` for ``k = 1`` and
``k = n``; under the intersection reading most of those identities
fail.  The union reading is therefore the library default.  One genuine
finding survives either way: for ``k = 2, n = 3`` Definition 9 yields a
*strict* sub-complex of Definition 6's ``R_{2-OF}`` (142 of 163
facets) — the paper's "reduces to R_{k-OF}" claim holds at the level of
task computability (both capture 2-concurrency; see experiment E11),
not facet-for-facet.

**Construction.**  Whether a face contends, its carrier ``tau``, its
colors and the facet's carrier ``rho`` depend on ``n`` alone;
``alpha`` enters only through ``CSM(rho)``, ``CSV(tau)`` and
``Conc(tau)``.  :func:`contention_table` therefore lists every
facet's contention faces once per ``n`` (cached like ``chr_complex``),
and :meth:`RABuilder.kept_facets` evaluates the critical structure
once per carrier (13 ``rho`` and 49 ``tau`` at n=3, 75 and 415 at n=4)
before folding the table: about 1 ms per ``alpha`` at n=3 and 0.04 s
at n=4, after a one-off table of 3 ms and 0.15 s (2-vCPU Xeon VM).
:meth:`RABuilder.facet_allowed` keeps Definition 9 face by face as
the executable definition the fold is tested and benchmarked against.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Literal, NamedTuple, Tuple

from ..adversaries.adversary import Adversary
from ..adversaries.agreement import AgreementFunction, agreement_function_of
from ..topology.chromatic import ChromaticComplex, ChrVertex, chi
from ..topology.simplex import Simplex, faces
from ..topology.subdivision import carrier, chr_complex, own_vertex_in_carrier
from .affine import AffineTask
from .concurrency import concurrency_level
from .contention import is_contention_simplex
from .critical import CriticalStructure

GuardVariant = Literal["intersection", "union"]

#: The reading of Definition 9's guard adopted as library default after
#: computational disambiguation (experiment E9): the *union* variant —
#: the one the paper's own Lemma 6 and Property 10 proofs use —
#: reproduces ``R_{t-res}`` for every ``t`` and ``R_{k-OF}`` for
#: ``k = 1`` and ``k = n``.
DEFAULT_VARIANT: GuardVariant = "union"


class ContentionTable(NamedTuple):
    """The half of Definition 9 that does not depend on ``alpha``.

    Which faces of a ``Chr² s`` facet contend, their carriers in
    ``Chr s`` and their colors are fixed by ``n``.  Row ``i`` describes
    ``facets[i]``: the index of its carrier in ``rhos`` and one
    ``(color mask, dimension, index in taus)`` triple per contention
    face ``theta`` (singletons included), ``tau = carrier(theta)``.
    """

    facets: Tuple[Simplex, ...]
    rhos: Tuple[Simplex, ...]
    taus: Tuple[Simplex, ...]
    rows: Tuple[Tuple[int, Tuple[Tuple[int, int, int], ...]], ...]


def _mask(colors: Iterable[int]) -> int:
    bits = 0
    for color in colors:
        bits |= 1 << color
    return bits


def _contend(u: Tuple[int, int], v: Tuple[int, int]) -> bool:
    """Definition 5 on ``(View1, View2)`` mask pairs: views reversed."""
    (u1, u2), (v1, v2) = u, v
    return (u1 != v1 and u2 != v2) and (
        (u1 & v1 == u1 and v2 & u2 == v2) or (v1 & u1 == v1 and u2 & v2 == u2)
    )


@lru_cache(maxsize=None)
def contention_table(n: int) -> ContentionTable:
    """The contention faces of every facet of ``chr_complex(n, 2)``.

    Each vertex's ``View1`` (a color set) and ``View2`` (a set of
    ``Chr s`` vertices) become bit masks once.  A facet's contention
    faces are the cliques of the pairwise relation on its vertices,
    found by extending each clique with a vertex that contends with
    all of it; a face's carrier is the union of its ``View2`` masks.
    """
    facets = tuple(chr_complex(n, 2).facets)
    bit: Dict[ChrVertex, int] = {}
    views: Dict[ChrVertex, Tuple[int, int]] = {}
    rho_index: Dict[int, int] = {}
    tau_index: Dict[int, int] = {}
    rhos: List[Simplex] = []
    taus: List[Simplex] = []
    #: One shared tuple per distinct face entry (35k entries, 2.3k
    #: distinct at n=4).
    entries: Dict[Tuple[int, int, int], Tuple[int, int, int]] = {}
    rows = []
    for facet in facets:
        members = tuple(facet)
        pairs = []
        for vertex in members:
            pair = views.get(vertex)
            if pair is None:
                view2 = 0
                for member in vertex.carrier:
                    view2 |= 1 << bit.setdefault(member, len(bit))
                view1 = _mask(own_vertex_in_carrier(vertex).carrier)
                pair = views[vertex] = (view1, view2)
            pairs.append(pair)
        size = len(members)
        rivals = [
            _mask(j for j in range(size) if _contend(pairs[i], pairs[j]))
            for i in range(size)
        ]
        #: Cliques as (member bits, dimension, color mask, View2 union),
        #: grown by members of increasing position so each is met once.
        cliques = [
            (1 << i, 0, 1 << members[i].color, pairs[i][1]) for i in range(size)
        ]
        thetas = []
        for subset, dimension, colors, seen in cliques:
            tau = tau_index.get(seen)
            if tau is None:
                tau = tau_index[seen] = len(taus)
                taus.append(
                    carrier(members[j] for j in range(size) if subset >> j & 1)
                )
            entry = (colors, dimension, tau)
            thetas.append(entries.setdefault(entry, entry))
            for j in range(subset.bit_length(), size):
                if subset & rivals[j] == subset:
                    cliques.append((
                        subset | 1 << j,
                        dimension + 1,
                        colors | 1 << members[j].color,
                        seen | pairs[j][1],
                    ))
        seen = 0
        for _, view2 in pairs:
            seen |= view2
        rho = rho_index.get(seen)
        if rho is None:
            rho = rho_index[seen] = len(rhos)
            rhos.append(carrier(facet))
        rows.append((rho, tuple(thetas)))
    return ContentionTable(facets, tuple(rhos), tuple(taus), tuple(rows))


class RABuilder:
    """Builds ``R_A`` for one agreement function, with shared caches."""

    def __init__(
        self,
        alpha: AgreementFunction,
        variant: GuardVariant = DEFAULT_VARIANT,
    ):
        self.alpha = alpha
        self.variant = variant
        self.structure = CriticalStructure(alpha)
        self._conc_cache: Dict[FrozenSet[ChrVertex], int] = {}

    # -- pieces of the predicate ------------------------------------------
    def concurrency(self, tau: FrozenSet[ChrVertex]) -> int:
        if tau not in self._conc_cache:
            self._conc_cache[tau] = concurrency_level(
                tau, self.alpha, self.structure
            )
        return self._conc_cache[tau]

    def guard_blocks_reliance(
        self,
        theta_colors: FrozenSet[int],
        rho: FrozenSet[ChrVertex],
        tau: FrozenSet[ChrVertex],
    ) -> bool:
        """True when ``theta`` cannot rely on critical simplices.

        This is the condition under which the contention bound
        ``dim(theta) < Conc_alpha(tau)`` must hold.
        """
        csm_colors = self.structure.csm_colors(rho)
        csv_colors = self.structure.csv(tau)
        if self.variant == "intersection":
            return not (theta_colors & csm_colors & csv_colors)
        return not (theta_colors & (csm_colors | csv_colors))

    def predicate(
        self, theta: FrozenSet[ChrVertex], rho: FrozenSet[ChrVertex]
    ) -> bool:
        """``P(theta, sigma)`` with ``rho = carrier(sigma, Chr s)``."""
        if not is_contention_simplex(theta):
            return True
        tau = carrier(theta)
        if not self.guard_blocks_reliance(chi(theta), rho, tau):
            return True
        return len(theta) - 1 < self.concurrency(tau)

    def facet_allowed(self, facet: FrozenSet[ChrVertex]) -> bool:
        """Definition 9 for one facet, face by face: the executable
        definition :meth:`kept_facets` is tested against."""
        rho = carrier(facet)
        return all(self.predicate(theta, rho) for theta in faces(facet))

    # -- the task -----------------------------------------------------------
    def kept_facets(self, n: int) -> List[Simplex]:
        """The facets of ``R_A``, in ``chr_complex(n, 2).facets`` order.

        Folds :func:`contention_table` through this ``alpha``: ``CSM``,
        ``CSV`` and ``Conc`` are read once per carrier, and a facet is
        kept unless one of its contention faces is blocked by the guard
        and not smaller than ``Conc(tau)``.  Equal, facet for facet, to
        filtering by :meth:`facet_allowed`.
        """
        table = contention_table(n)
        structure = self.structure
        csm = [_mask(structure.csm_colors(rho)) for rho in table.rhos]
        csv = [_mask(structure.csv(tau)) for tau in table.taus]
        conc = [self.concurrency(tau) for tau in table.taus]
        union = self.variant != "intersection"
        kept = []
        for facet, (rho, thetas) in zip(table.facets, table.rows):
            members = csm[rho]
            for colors, dimension, tau in thetas:
                if dimension >= conc[tau] and not colors & (
                    members | csv[tau] if union else members & csv[tau]
                ):
                    break
            else:
                kept.append(facet)
        return kept

    def build(self, n: int) -> AffineTask:
        return AffineTask(
            n,
            2,
            ChromaticComplex(self.kept_facets(n)),
            name=f"R[{self.alpha.name}]",
        )


def r_affine(
    alpha: AgreementFunction,
    variant: GuardVariant = DEFAULT_VARIANT,
) -> AffineTask:
    """``R_A`` from an agreement function (Definition 9)."""
    return RABuilder(alpha, variant).build(alpha.n)


def r_affine_of_adversary(
    adversary: Adversary,
    variant: GuardVariant = DEFAULT_VARIANT,
) -> AffineTask:
    """``R_A`` from an adversary, via ``alpha(P) = setcon(A|P)``.

    The construction is meaningful (captures task computability) for
    *fair* adversaries; for unfair ones the resulting complex is still
    well defined but Theorem 15's equivalence may fail — see the
    fairness checker in :mod:`repro.adversaries.fairness`.
    """
    return r_affine(agreement_function_of(adversary), variant)

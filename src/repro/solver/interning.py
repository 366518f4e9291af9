"""Dense-integer interning of one FACT constraint problem.

The reference :class:`~repro.tasks.solvability.MapSearch` spends its inner
loop hashing ``frozenset`` images of :class:`OutputVertex` tuples and
probing them against ``Delta``'s allowed-output sets.  The bitset
kernel instead interns everything **once per (affine, task) pair**:

* every output vertex that appears in any candidate domain gets a dense
  integer id, so a *set* of output vertices becomes a Python-int
  bitmask (one bit per id) and set union / membership become ``|`` and
  a hash probe on a small ``frozenset`` of ints;
* affine vertices and simplices are the positions and simplex indices
  of the shared :class:`~repro.tasks.solvability.SearchStructure` (the
  table is built *from* a ``MapSearch``, so vertex order, candidate
  order and firing positions are identical by construction);
* the constraint ``image(sigma) in Delta(carrier(sigma, s))`` depends
  on ``sigma`` only through its participation, and ``L`` has thousands
  of simplices but at most ``2^n - 1`` participations.  Each distinct
  participation is one **group** with one set of allowed image
  bitmasks; a simplex keeps only its group index.

On top of the groups the table memoizes **allowed-candidate bitmasks**:
for a group, a target position and the bitmask of the already-chosen
members, the set of candidates at the target that complete an allowed
image — computed once, then a single ``&`` per arrival at that
position.  One memo per group is shared by every simplex in it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..tasks.solvability import MapSearch
from ..tasks.task import OutputVertex

__all__ = ["InternTable"]


class InternTable:
    """Interned view of a :class:`MapSearch` problem.

    Built from an already-constructed ``MapSearch`` so every ordering
    decision (vertex order, candidate order, firing assignment) is
    inherited rather than re-derived — the parity guarantees of the
    bitset kernel reduce to "same orders, same booleans".

    ``group[i]`` is the participation group of simplex ``i`` of the
    search's ``structure``; ``allowed[g]`` holds the bitmask of every
    reachable allowed image of group ``g`` (images mentioning an output
    vertex no domain offers are dropped: no assignment can produce
    them) and ``memo[g]`` its allowed-candidate memo.
    """

    def __init__(self, search: MapSearch):
        self.search = search
        self.structure = structure = search.structure

        # Output-vertex interning: ids are assigned in canonical domain
        # order (vertex order, then candidate order), so the id layout
        # is as deterministic as the search itself.
        self.out_index: Dict[OutputVertex, int] = {}
        #: per position, the bit of each candidate (candidate order).
        self.domain_bits: List[List[int]] = []
        for vertex in search.vertices:
            bits: List[int] = []
            for out in search.domains[vertex]:
                idx = self.out_index.setdefault(out, len(self.out_index))
                bits.append(1 << idx)
            self.domain_bits.append(bits)

        self.group: List[int] = []
        self.allowed: List[FrozenSet[int]] = []
        #: per group, ``(target_position, others_mask) -> candidate mask``
        self.memo: List[Dict[Tuple[int, int], int]] = []
        group_of: Dict[FrozenSet, int] = {}
        for participation in structure.participation:
            group = group_of.get(participation)
            if group is None:
                group = group_of[participation] = len(self.allowed)
                raw = search.task.allowed_outputs(participation)
                self.allowed.append(
                    frozenset(
                        mask
                        for mask in map(self._image_mask, raw)
                        if mask is not None
                    )
                )
                self.memo.append({})
            self.group.append(group)

    def _image_mask(self, image) -> Optional[int]:
        """Bitmask of an allowed image, or ``None`` if unreachable."""
        mask = 0
        for out in image:
            idx = self.out_index.get(out)
            if idx is None:
                return None
            mask |= 1 << idx
        return mask

    # ------------------------------------------------------------------
    def allowed_candidates(
        self, group: int, target: int, others_mask: int
    ) -> int:
        """Candidates at ``target`` completing an allowed image of ``group``.

        ``others_mask`` is the OR of the chosen bits of every *other*
        assigned member of the simplex; the result is a bitmask over
        candidate **indices** of ``target``'s domain.  Memoized: search
        trees revisit the same ``(target, others)`` context constantly,
        distinct output choices at non-member positions collapse onto
        one memo entry, and every simplex of the group shares it.
        """
        key = (target, others_mask)
        memo = self.memo[group]
        mask = memo.get(key)
        if mask is None:
            mask = 0
            allowed = self.allowed[group]
            for index, bit in enumerate(self.domain_bits[target]):
                if (others_mask | bit) in allowed:
                    mask |= 1 << index
            memo[key] = mask
        return mask

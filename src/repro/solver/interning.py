"""Dense-integer interning of one FACT constraint problem.

The legacy :class:`~repro.tasks.solvability.MapSearch` spends its inner
loop hashing ``frozenset`` images of :class:`OutputVertex` tuples and
probing them against ``Delta``'s allowed-output sets.  The bitset
kernels instead intern everything **once per (affine, task) pair**:

* every output vertex that appears in any candidate domain gets a dense
  integer id, so a *set* of output vertices becomes a Python-int
  bitmask (one bit per id) and set union / membership become ``|`` and
  a hash probe on a small ``frozenset`` of ints;
* every affine vertex becomes its position in the legacy assignment
  order (the interner is built *from* a ``MapSearch`` and reads member
  positions from its shared ``SearchStructure``, so vertex order,
  candidate order and firing positions are identical by construction);
* every simplex constraint ``image(sigma) in Delta(carrier(sigma, s))``
  is pre-compiled into a :class:`CompiledConstraint`: the member
  positions plus the set of allowed image bitmasks.

On top of the compiled constraints the table memoizes **allowed-
candidate bitmasks**: for a constraint, a target position and the
bitmask of the already-chosen members, the set of candidates at the
target that complete an allowed image — computed once, then a single
``&`` per arrival at that position.  The memo is shared by the
tree-identical bitset kernel (target = firing position) and the
forward-checking kernel (any unassigned position).

Memo *misses* are vectorized with numpy when the interned output
universe fits one machine word: a miss tests every candidate (or, for
the GAC revision in :meth:`InternTable.supported_candidates`, every
live ``(source, target)`` candidate pair) against the constraint's
allowed-mask array in one ``isin`` call instead of a Python-level
probe per candidate.  The numpy paths are bit-identical to the scalar
fallbacks — they fill the same memos with the same masks — so kernels
never observe which path ran.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..tasks.solvability import MapSearch
from ..tasks.task import OutputVertex

try:  # numpy is optional: every vectorized path has a scalar fallback
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via REPRO_NO_NUMPY
    _np = None

__all__ = ["CompiledConstraint", "InternTable"]

#: Below this many membership probes a memo miss stays scalar — numpy
#: call overhead would dominate the loop it replaces.
_VECTOR_MIN_PROBES = 8


class CompiledConstraint:
    """One simplex constraint over interned positions.

    ``positions`` are the simplex's vertices as assignment-order
    indices, ascending — so ``positions[-1]`` is the firing position
    (the constraint is fully assigned exactly when it is reached).
    ``allowed`` holds the bitmask of every allowed image that is
    reachable (images mentioning an output vertex no domain offers are
    dropped: no assignment can ever produce them).
    """

    __slots__ = ("positions", "allowed", "memo", "allowed_array")

    def __init__(
        self, positions: Tuple[int, ...], allowed: FrozenSet[int]
    ):
        self.positions = positions
        self.allowed = allowed
        #: ``(target_position, others_mask) -> candidate-index bitmask``
        self.memo: Dict[Tuple[int, int], int] = {}
        #: lazily-built sorted numpy view of ``allowed`` (vector path).
        self.allowed_array = None


class InternTable:
    """Interned view of a :class:`MapSearch` problem.

    Built from an already-constructed ``MapSearch`` so every ordering
    decision (vertex order, candidate order, firing assignment) is
    inherited rather than re-derived — the parity guarantees of the
    bitset kernel reduce to "same orders, same booleans".
    """

    def __init__(self, search: MapSearch):
        self.search = search
        structure = search.structure
        vertices = search.vertices

        # Output-vertex interning: ids are assigned in canonical domain
        # order (vertex order, then candidate order), so the id layout
        # is as deterministic as the search itself.
        self.out_index: Dict[OutputVertex, int] = {}
        #: per position, the bit of each candidate (candidate order).
        self.domain_bits: List[List[int]] = []
        for vertex in vertices:
            bits: List[int] = []
            for out in search.domains[vertex]:
                idx = self.out_index.setdefault(out, len(self.out_index))
                bits.append(1 << idx)
            self.domain_bits.append(bits)

        #: constraints indexed by firing position (legacy ``firing``).
        self.firing: List[List[CompiledConstraint]] = [[] for _ in vertices]
        #: constraints indexed by every member position (for the
        #: forward-checking kernel's propagation).
        self.involving: List[List[CompiledConstraint]] = [[] for _ in vertices]
        # Thousands of simplices share a handful of participation sets,
        # so the allowed-image mask set is computed once per
        # participation, not once per simplex.  Member positions come
        # sorted from the shared structure.
        allowed_masks: Dict[FrozenSet, FrozenSet[int]] = {}
        for positions, participation in zip(
            structure.simplices, structure.participation
        ):
            allowed = allowed_masks.get(participation)
            if allowed is None:
                raw = search.task.allowed_outputs(participation)
                allowed = frozenset(
                    mask
                    for mask in (self._image_mask(image) for image in raw)
                    if mask is not None
                )
                allowed_masks[participation] = allowed
            constraint = CompiledConstraint(positions, allowed)
            self.firing[positions[-1]].append(constraint)
            for position in positions:
                self.involving[position].append(constraint)

        #: vector paths need every mask to fit one unsigned word.
        self.vectorized = _np is not None and len(self.out_index) <= 63

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
        self, constraint: CompiledConstraint, target: int, others_mask: int
    ) -> int:
        """Candidates at ``target`` completing an allowed image.

        ``others_mask`` is the OR of the chosen bits of every *other*
        assigned member of the constraint; the result is a bitmask over
        candidate **indices** of ``target``'s domain.  Memoized: search
        trees revisit the same ``(target, others)`` context constantly,
        and distinct output choices at non-member positions collapse
        onto one memo entry.
        """
        key = (target, others_mask)
        mask = constraint.memo.get(key)
        if mask is None:
            bits = self.domain_bits[target]
            if self.vectorized and len(bits) >= _VECTOR_MIN_PROBES:
                mask = self._vector_candidates(
                    constraint, bits, others_mask
                )
            else:
                mask = 0
                allowed = constraint.allowed
                for index, bit in enumerate(bits):
                    if (others_mask | bit) in allowed:
                        mask |= 1 << index
            constraint.memo[key] = mask
        return mask

    def supported_candidates(
        self,
        constraint: CompiledConstraint,
        target: int,
        others_mask: int,
        source: int,
        alive: int,
    ) -> int:
        """Union of allowed candidates at ``target`` over the live
        candidates of ``source`` — the GAC revision step.

        Equivalent to OR-ing :meth:`allowed_candidates` over every live
        source candidate, and memoized through the same per-call memo,
        but the *misses* are batched: one vectorized membership test
        covers every missing ``(source candidate, target candidate)``
        pair instead of a Python probe per pair.
        """
        memo = constraint.memo
        source_bits = self.domain_bits[source]
        supported = 0
        missing: List[int] = []
        for candidate, bit in enumerate(source_bits):
            if not (alive >> candidate) & 1:
                continue
            context = others_mask | bit
            mask = memo.get((target, context))
            if mask is None:
                missing.append(context)
            else:
                supported |= mask
        if not missing:
            return supported
        target_bits = self.domain_bits[target]
        probes = len(missing) * len(target_bits)
        if self.vectorized and probes >= _VECTOR_MIN_PROBES:
            contexts = _np.fromiter(
                missing, dtype=_np.uint64, count=len(missing)
            )
            bits_arr = _np.fromiter(
                target_bits, dtype=_np.uint64, count=len(target_bits)
            )
            hits = _np.isin(
                contexts[:, None] | bits_arr[None, :],
                self._allowed_array(constraint),
            )
            for row, context in enumerate(missing):
                mask = 0
                for index in _np.flatnonzero(hits[row]):
                    mask |= 1 << int(index)
                memo[(target, context)] = mask
                supported |= mask
        else:
            allowed = constraint.allowed
            for context in missing:
                mask = 0
                for index, bit in enumerate(target_bits):
                    if (context | bit) in allowed:
                        mask |= 1 << index
                memo[(target, context)] = mask
                supported |= mask
        return supported

    # -- numpy internals ------------------------------------------------
    def _allowed_array(self, constraint: CompiledConstraint):
        array = constraint.allowed_array
        if array is None:
            array = _np.fromiter(
                constraint.allowed,
                dtype=_np.uint64,
                count=len(constraint.allowed),
            )
            array.sort()
            constraint.allowed_array = array
        return array

    def _vector_candidates(
        self, constraint: CompiledConstraint, bits: List[int], others: int
    ) -> int:
        bits_arr = _np.fromiter(bits, dtype=_np.uint64, count=len(bits))
        hits = _np.isin(
            _np.uint64(others) | bits_arr, self._allowed_array(constraint)
        )
        mask = 0
        for index in _np.flatnonzero(hits):
            mask |= 1 << int(index)
        return mask

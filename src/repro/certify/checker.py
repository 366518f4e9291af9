"""The independent certificate checker — the trusted base.

This module re-validates solvability certificates with **no imports
from the rest of the library** (standard library only; a test enforces
it).  Everything it needs it re-derives from the certificate document
itself:

* vertex structure — its own reader for the tagged encodings
  (``chrv`` / ``outv`` / ``fset`` / ints), its own color and
  carrier-lowering folds;
* the statement — the ``Delta`` table and the facets of ``L`` are in
  the certificate body; the checker recomputes their content digests
  (the same SHA-256-over-canonical-JSON scheme the engine addresses its
  cache with) and compares them to the digests the statement claims,
  binding witness to statement;
* the complex — the downward closure of the facets, so a certificate
  cannot omit a constraint simplex;
* the domains — recomputed from the ``Delta`` table, so an unsolvable
  certificate cannot smuggle in truncated candidate lists.

Positive certificates are checked for chromaticity, simplicial-ness
(every closure simplex has an entry whose image matches the map) and
carrier inclusion (the image lies in ``Delta`` of the independently
recomputed carrier).  Negative certificates are replayed: an exhaustive
backtrack over the recomputed domains, in the certificate's vertex
order, must find no map and must visit exactly the traced node count.
Budget stubs report an ``undecided`` verdict; the ``partial``
assignment that older stubs carry is checked for internal consistency.

The result is always a structured :class:`CheckReport`; the checker
never raises on malformed input.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

#: Format identifier/versions this checker understands (mirrors
#: ``repro.certify.witness``; kept literal so the module stays
#: dependency-free — a test asserts the two agree).
CERT_FORMAT = "repro.certify"
SUPPORTED_VERSIONS = (1,)

#: Digest salt of the engine's canonical codec, reproduced literally
#: for the same reason (test-enforced equal to
#: ``repro.engine.serialize._DIGEST_SALT``).
DIGEST_SALT = "repro.engine:v1:"

#: The closed set of machine-readable failure reasons.
REASONS = frozenset(
    {
        "ok",
        "bad_format",
        "unsupported_version",
        "unknown_kind",
        "statement_digest_mismatch",
        "chromatic_violation",
        "not_closed",
        "missing_map_entry",
        "carrier_mismatch",
        "image_mismatch",
        "image_not_allowed",
        "order_not_permutation",
        "domain_mismatch",
        "map_exists",
        "trace_mismatch",
        "inconsistent_partial",
    }
)


@dataclass
class CheckReport:
    """The structured outcome of one certificate check."""

    valid: bool
    kind: str  # "solvable" | "unsolvable" | "budget" | "unknown"
    verdict: str  # "solvable" | "unsolvable" | "undecided" | "invalid"
    reason: str  # "ok" or a code from REASONS
    detail: str = ""
    vertices_checked: int = 0
    simplices_checked: int = 0
    nodes_replayed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "valid": self.valid,
            "kind": self.kind,
            "verdict": self.verdict,
            "reason": self.reason,
            "detail": self.detail,
            "vertices_checked": self.vertices_checked,
            "simplices_checked": self.simplices_checked,
            "nodes_replayed": self.nodes_replayed,
        }


class _Reject(Exception):
    """Internal control flow: abort the check with (reason, detail)."""

    def __init__(self, reason: str, detail: str = ""):
        assert reason in REASONS, reason
        super().__init__(detail)
        self.reason = reason
        self.detail = detail


# ----------------------------------------------------------------------
# An independent reader for the tagged vertex encodings
# ----------------------------------------------------------------------
#: The canonical JSON text of an encoded structure (one shared encoder:
#: ``json.dumps`` with options builds a new encoder per call).
_canon_text = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=True
).encode


def _freeze(encoded: Any) -> Any:
    """Encoded JSON structure -> hashable value (tagged tuples)."""
    if encoded is None or isinstance(encoded, (bool, int, float, str)):
        return encoded
    if not isinstance(encoded, list) or not encoded:
        raise _Reject("bad_format", f"unreadable vertex encoding {encoded!r}")
    tag = encoded[0]
    if tag in ("chrv", "outv") and len(encoded) == 3:
        return (tag, _freeze(encoded[1]), _freeze(encoded[2]))
    if tag == "fset" and len(encoded) == 2:
        return ("fset", frozenset(_freeze(member) for member in encoded[1]))
    if tag in ("tuple", "list") and len(encoded) == 2:
        return (tag, tuple(_freeze(member) for member in encoded[1]))
    raise _Reject("bad_format", f"unknown vertex encoding tag {tag!r}")


def _freeze_set(encoded: Any, read: Callable[[Any], Any]) -> Any:
    """``_freeze`` of an encoded set whose members go through ``read``."""
    if isinstance(encoded, list) and len(encoded) == 2 and encoded[0] == "fset":
        return ("fset", frozenset(read(member) for member in encoded[1]))
    return _freeze(encoded)


class _Reader:
    """One check's tables over the document's vertex encodings.

    Each vertex is keyed by its exact JSON text from the C encoder.
    ``read`` freezes each distinct key once: a hit returns the value a
    fresh ``_freeze`` would, and an equal vertex written differently
    (set members permuted) misses and freezes in full, to the value it
    always did.  ``canonical`` renders the canonical text (set members
    sorted) once per distinct key, for the digest binding, and keeps the
    key for the vertex's first read.

    An encoding object met again (a document built in memory shares
    them) is answered by identity, without rendering it again: the
    tables hold the objects, and nothing mutates the document during a
    check.  One reader per check: nothing is carried from one
    certificate to the next.
    """

    def __init__(self) -> None:
        #: Identity memo of ``_canonical`` (see there).
        self.memo: Dict[int, Tuple[Any, str]] = {}
        #: id -> (encoding, exact text) of the vertices ``canonical`` saw.
        self.keys: Dict[int, Tuple[Any, str]] = {}
        #: exact text -> canonical text.
        self.texts: Dict[str, str] = {}
        interned: Dict[str, Any] = {}  # exact text -> frozen value
        by_id: Dict[int, Tuple[Any, Any]] = {}  # id -> (encoding, frozen value)
        seen_get, known_get = by_id.get, self.keys.get

        def read(encoded: Any) -> Any:
            """``_freeze(encoded)``, frozen once per distinct text."""
            if not isinstance(encoded, list):
                return _freeze(encoded)
            seen = seen_get(id(encoded))
            if seen is not None:
                return seen[1]
            known = known_get(id(encoded))
            if known is not None:
                key = known[1]
            else:
                try:
                    key = _canon_text(encoded)
                except (TypeError, ValueError):
                    return _freeze(encoded)
            frozen = interned.get(key)
            if frozen is None:
                # ``_freeze``, with a carrier's members (the sub-vertices
                # shared by many vertices) read through this reader.
                if len(encoded) == 3 and encoded[0] == "chrv":
                    frozen = (
                        "chrv",
                        _freeze(encoded[1]),
                        _freeze_set(encoded[2], read),
                    )
                else:
                    frozen = _freeze(encoded)
                interned[key] = frozen
            by_id[id(encoded)] = (encoded, frozen)
            return frozen

        self.read = read

    def canonical(self, encoded: Any) -> str:
        """``_canonical(encoded)`` of a vertex, rendered once per key."""
        if not isinstance(encoded, list):
            return _canonical(encoded, self.memo)
        known = self.keys.get(id(encoded))
        if known is not None:
            key = known[1]
        else:
            try:
                key = _canon_text(encoded)
            except (TypeError, ValueError):
                return _canonical(encoded, self.memo)
            self.keys[id(encoded)] = (encoded, key)
        text = self.texts.get(key)
        if text is None:
            text = self.texts[key] = _canonical(encoded, self.memo)
        return text

    def set_text(self, encoded: Any) -> str:
        """``_canonical`` of an encoded set of vertices (a facet)."""
        if not (
            isinstance(encoded, list)
            and len(encoded) == 2
            and encoded[0] == "fset"
            and isinstance(encoded[1], list)
        ):
            return _canonical(encoded, self.memo)
        members = [
            str(member) if type(member) is int else self.canonical(member)
            for member in encoded[1]
        ]
        return '["fset",' + _join(sorted(members)) + "]"


# ----------------------------------------------------------------------
# Canonical text and content digests
# ----------------------------------------------------------------------
def _join(texts: Iterable[str]) -> str:
    return "[" + ",".join(texts) + "]"


def _canonical(encoded: Any, memo: Optional[Dict[int, Tuple[Any, str]]] = None) -> str:
    """Canonical text of an encoded structure, set members sorted.

    Built bottom-up: each node's text is computed once, and a set's text
    is its members' sorted texts joined — the text the engine codec
    gives the same value, however the members are ordered here.  With a
    ``memo``, an array object met again is answered by identity (the
    memo holds the object, so its id is not reused while it lives).
    """
    if type(encoded) is int:
        return str(encoded)
    if isinstance(encoded, list) and encoded:
        if memo is not None:
            seen = memo.get(id(encoded))
            if seen is not None:
                return seen[1]
        tag = encoded[0]
        if not isinstance(tag, str):
            # An untagged pair/array (e.g. a delta-table entry).
            text = _join([_canonical(member, memo) for member in encoded])
        elif tag == "fset" and len(encoded) == 2:
            # Process ids are the bulk of all members: no call for them.
            members = [
                str(member) if type(member) is int else _canonical(member, memo)
                for member in encoded[1]
            ]
            text = '["fset",' + _join(sorted(members)) + "]"
        elif tag in ("tuple", "list") and len(encoded) == 2:
            members = [_canonical(member, memo) for member in encoded[1]]
            text = '["' + tag + '",' + _join(members) + "]"
        elif tag in ("chrv", "outv") and len(encoded) == 3:
            text = _join(
                (
                    '"' + tag + '"',
                    _canonical(encoded[1], memo),
                    _canonical(encoded[2], memo),
                )
            )
        else:
            raise _Reject("bad_format", f"unknown encoding tag {tag!r}")
        if memo is not None:
            memo[id(encoded)] = (encoded, text)
        return text
    return _canon_text(encoded)


def _frozen_text(vertex: Any) -> str:
    """Canonical text of a frozen value: ``_canonical`` of its encoding."""
    if isinstance(vertex, tuple) and vertex:
        tag = vertex[0]
        if tag in ("chrv", "outv"):
            return _join(
                ('"' + tag + '"', _frozen_text(vertex[1]), _frozen_text(vertex[2]))
            )
        if tag == "fset":
            members = sorted(_frozen_text(member) for member in vertex[1])
            return '["fset",' + _join(members) + "]"
        if tag in ("tuple", "list"):
            members = [_frozen_text(member) for member in vertex[1]]
            return '["' + tag + '",' + _join(members) + "]"
    return _canon_text(vertex)


def _digest(text: str) -> str:
    payload = DIGEST_SALT + text
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Structural folds on frozen vertices
# ----------------------------------------------------------------------
def _color(vertex: Any) -> int:
    if isinstance(vertex, bool):
        raise _Reject("bad_format", "boolean is not a vertex")
    if isinstance(vertex, int):
        return vertex
    if isinstance(vertex, tuple) and vertex and vertex[0] in ("chrv", "outv"):
        color = vertex[1]
        if isinstance(color, int) and not isinstance(color, bool):
            return color
    raise _Reject("bad_format", f"vertex {vertex!r} has no color")


def _is_chrv(vertex: Any) -> bool:
    return isinstance(vertex, tuple) and len(vertex) == 3 and vertex[0] == "chrv"


def _carrier_members(vertex: Any) -> FrozenSet[Any]:
    carrier = vertex[2]
    if not (isinstance(carrier, tuple) and carrier[0] == "fset"):
        raise _Reject("bad_format", f"carrier of {vertex!r} is not a set")
    return carrier[1]


def _carrier_in_s(vertices: FrozenSet[Any]) -> FrozenSet[int]:
    """Lower a simplex's carrier to a face of ``s`` (process ids).

    A ``true`` member is rejected once its level is read, before a
    union could keep it or an equal ``1`` by iteration order.
    """
    current = frozenset(vertices)
    while current and all(_is_chrv(v) for v in current):
        lowered: set = set()
        boolean = False
        for vertex in current:
            members = _carrier_members(vertex)
            boolean = boolean or any(isinstance(m, bool) for m in members)
            lowered.update(members)
        if boolean:
            raise _Reject("bad_format", "carrier does not lower to process ids")
        current = frozenset(lowered)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in current):
        raise _Reject(
            "bad_format", "carrier does not lower to process ids"
        )
    return current


def _carrier_folds() -> Callable[[Iterable[Any]], FrozenSet[int]]:
    """``_carrier_in_s`` for one check, lowering each vertex once.

    A vertex that lowers to process ids in ``r`` rounds through
    non-empty sets of subdivision vertices folds to ``(r, ids)``, from
    its carrier members' folds.  Lowering a simplex level by level
    lowers each vertex, so a simplex whose vertices all fold in the
    same number of rounds lowers to the union of their ids.  Any other
    simplex (mixed depths, an empty carrier, a member that is no
    process id, a carrier that is no set) goes through
    ``_carrier_in_s`` itself, so it is lowered or rejected exactly as
    the direct fold does.  The folds are keyed by identity and hold
    their vertices; one table per check.
    """
    folds: Dict[int, Tuple[Any, Optional[Tuple[int, FrozenSet[int]]]]] = {}

    def fold(vertex: Any) -> Optional[Tuple[int, FrozenSet[int]]]:
        seen = folds.get(id(vertex))
        if seen is not None:
            return seen[1]
        result = None
        if type(vertex) is int:
            result = (0, frozenset((vertex,)))
        elif _is_chrv(vertex):
            carrier = vertex[2]
            if isinstance(carrier, tuple) and len(carrier) == 2 and carrier[0] == "fset":
                members = [fold(member) for member in carrier[1]]
                if None not in members:
                    rounds = {member[0] for member in members}
                    if len(rounds) == 1:  # none for an empty carrier
                        result = (
                            rounds.pop() + 1,
                            frozenset().union(*[member[1] for member in members]),
                        )
        folds[id(vertex)] = (vertex, result)
        return result

    def carrier_of(simplex: Iterable[Any]) -> FrozenSet[int]:
        rounds = None
        ids = []
        for vertex in simplex:
            seen = folds.get(id(vertex))
            folded = fold(vertex) if seen is None else seen[1]
            if folded is None or (rounds is not None and folded[0] != rounds):
                return _carrier_in_s(simplex)
            rounds = folded[0]
            ids.append(folded[1])
        return ids[0] if len(ids) == 1 else frozenset().union(*ids)

    return carrier_of


def _closure(facets: List[FrozenSet[Any]]) -> FrozenSet[FrozenSet[Any]]:
    """All non-empty faces of the given facets.

    The vertices and the facets are faces already; only the sizes
    between are enumerated, facet by facet.
    """
    closed = set(map(frozenset, zip(frozenset().union(*facets))))
    closed.update(facet for facet in facets if facet)
    for facet in facets:
        members = tuple(facet)
        for size in range(2, len(members)):
            closed.update(map(frozenset, combinations(members, size)))
    return frozenset(closed)


# ----------------------------------------------------------------------
# Statement parsing and digest binding
# ----------------------------------------------------------------------
#: ``Delta`` of a participation the table does not list.
_NOTHING_ALLOWED: FrozenSet[FrozenSet[Any]] = frozenset()


class _Statement:
    """The parsed claim: complex facets + tabulated ``Delta``."""

    def __init__(self, raw: Any):
        if not isinstance(raw, dict):
            raise _Reject("bad_format", "statement must be an object")
        try:
            self.n = int(raw["n"])
            self.depth = int(raw["depth"])
            self.affine_name = str(raw["affine_name"])
            self.task_name = str(raw["task_name"])
            facets_enc = raw["facets"]
            delta_enc = raw["delta"]
            claimed_affine = str(raw["affine_digest"])
            claimed_task = str(raw["task_digest"])
        except (KeyError, TypeError, ValueError) as exc:
            raise _Reject("bad_format", f"incomplete statement: {exc}")
        if not isinstance(facets_enc, list) or not isinstance(delta_enc, list):
            raise _Reject("bad_format", "facets/delta must be arrays")

        # Digest binding: recompute the engine's content addresses from
        # the body and require them to match the claimed digests.  Each
        # distinct vertex encoding of the facets is rendered once, and
        # the text it was keyed by is kept for the reader below.
        reader = _Reader()
        affine_text = _join(
            (
                '"affine"',
                str(self.n),
                str(self.depth),
                _canon_text(self.affine_name),
                _join(
                    (
                        '"ccx"',
                        _join(sorted([reader.set_text(f) for f in facets_enc])),
                    )
                ),
            )
        )
        task_text = _join(
            (
                '"task"',
                str(self.n),
                _canon_text(self.task_name),
                _join(sorted([_canonical(e, reader.memo) for e in delta_enc])),
            )
        )
        if _digest(affine_text) != claimed_affine:
            raise _Reject(
                "statement_digest_mismatch",
                "recomputed affine-complex digest differs from the claim",
            )
        if _digest(task_text) != claimed_task:
            raise _Reject(
                "statement_digest_mismatch",
                "recomputed task digest differs from the claim",
            )
        self.affine_digest = claimed_affine
        self.task_digest = claimed_task

        #: This check's vertex reader and carrier lowering.
        self.read = read = reader.read
        self.carrier = _carrier_folds()
        self.facets: List[FrozenSet[Any]] = []
        for facet_enc in facets_enc:
            frozen = _freeze_set(facet_enc, read)
            if not (isinstance(frozen, tuple) and frozen[0] == "fset"):
                raise _Reject("bad_format", "facet is not a vertex set")
            self.facets.append(frozen[1])
        self.simplices = _closure(self.facets)
        self.vertices = frozenset(
            vertex for facet in self.facets for vertex in facet
        )

        # Delta: participation (frozenset of ids) -> set of allowed
        # output simplices (frozensets of frozen output vertices).
        self.delta: Dict[FrozenSet[int], FrozenSet[FrozenSet[Any]]] = {}
        for entry in delta_enc:
            if not (isinstance(entry, list) and len(entry) == 2):
                raise _Reject("bad_format", "malformed delta entry")
            participants_frozen = _freeze(entry[0])
            # The output vertices through the reader: frozen once each.
            outputs_frozen = _freeze_set(
                entry[1], lambda sigma: _freeze_set(sigma, read)
            )
            if not (
                isinstance(participants_frozen, tuple)
                and participants_frozen[0] == "fset"
                and isinstance(outputs_frozen, tuple)
                and outputs_frozen[0] == "fset"
            ):
                raise _Reject("bad_format", "malformed delta entry")
            participants = frozenset(participants_frozen[1])
            if not all(
                isinstance(p, int) and not isinstance(p, bool)
                for p in participants
            ):
                raise _Reject("bad_format", "delta participation not ids")
            outputs = set()
            for sigma in outputs_frozen[1]:
                if not (isinstance(sigma, tuple) and sigma[0] == "fset"):
                    raise _Reject(
                        "bad_format", "delta output is not a simplex"
                    )
                outputs.add(frozenset(sigma[1]))
            self.delta[participants] = frozenset(outputs)
        self._domains: Dict[Tuple[FrozenSet[int], int], FrozenSet[Any]] = {}

    def allowed(self, participants: FrozenSet[int]) -> FrozenSet[FrozenSet[Any]]:
        return self.delta.get(participants, _NOTHING_ALLOWED)

    def domain(self, vertex: Any) -> FrozenSet[Any]:
        """The natural candidate set of ``vertex`` under ``Delta``.

        Mirrors the decision procedure's domain rule: output vertices of
        the vertex's color drawn from allowed simplices of its witnessed
        participation, whose singleton is itself allowed.  A function of
        the participation and the color, computed once for each.
        """
        participation = self.carrier((vertex,))
        color = _color(vertex)
        domain = self._domains.get((participation, color))
        if domain is None:
            allowed = self.allowed(participation)
            domain = self._domains[participation, color] = frozenset(
                out
                for sigma in allowed
                for out in sigma
                if _color(out) == color and frozenset([out]) in allowed
            )
        return domain


# ----------------------------------------------------------------------
# Per-kind checks
# ----------------------------------------------------------------------
def _check_solvable(cert: Dict[str, Any], statement: _Statement) -> CheckReport:
    read = statement.read
    mapping: Dict[Any, Any] = {}
    for pair in cert.get("map", ()):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise _Reject("bad_format", "malformed map entry")
        mapping[read(pair[0])] = read(pair[1])

    missing = statement.vertices - set(mapping)
    if missing:
        raise _Reject(
            "missing_map_entry",
            f"{len(missing)} complex vertices have no image",
        )
    # Chromaticity: phi preserves colors.
    for vertex, out in mapping.items():
        if _color(vertex) != _color(out):
            raise _Reject(
                "chromatic_violation",
                f"vertex of color {_color(vertex)} maps to color {_color(out)}",
            )

    entries = cert.get("simplices")
    if not isinstance(entries, list):
        raise _Reject("bad_format", "missing per-simplex entries")
    # Image texts by the identity of the frozen output: ``mapping`` keeps
    # every output alive, and an equal output of another type (``true``
    # for ``1``) must not borrow a text that is not its own.
    image_text: Dict[int, str] = {}
    for out in mapping.values():
        if id(out) not in image_text:
            image_text[id(out)] = _frozen_text(out)
    closure, carrier_of, image_of = (
        statement.simplices,
        statement.carrier,
        mapping.__getitem__,
    )
    seen: set = set()
    for entry in entries:
        if not isinstance(entry, dict):
            raise _Reject("bad_format", "malformed simplex entry")
        try:
            simplex = frozenset(map(read, entry["simplex"]))
            claimed_carrier = frozenset(entry["carrier"])
            claimed_image = frozenset(entry["image"])
        except (KeyError, TypeError) as exc:
            raise _Reject("bad_format", f"incomplete simplex entry: {exc}")
        if simplex not in closure:
            raise _Reject(
                "not_closed",
                "entry lists a simplex outside the complex closure",
            )
        seen.add(simplex)
        carrier = carrier_of(simplex)
        if carrier != claimed_carrier:
            raise _Reject(
                "carrier_mismatch",
                f"claimed carrier {sorted(claimed_carrier)} != "
                f"recomputed {sorted(carrier)}",
            )
        image = frozenset(map(image_of, simplex))
        if claimed_image != {image_text[id(out)] for out in image}:
            raise _Reject(
                "image_mismatch",
                "entry image differs from the map's image of the simplex",
            )
        if image not in statement.allowed(carrier):
            raise _Reject(
                "image_not_allowed",
                f"image not in Delta({sorted(carrier)})",
            )
    if seen != statement.simplices:
        raise _Reject(
            "not_closed",
            f"{len(statement.simplices) - len(seen)} closure simplices "
            "have no entry",
        )
    return CheckReport(
        valid=True,
        kind="solvable",
        verdict="solvable",
        reason="ok",
        vertices_checked=len(mapping),
        simplices_checked=len(seen),
    )


def _check_unsolvable(
    cert: Dict[str, Any], statement: _Statement
) -> CheckReport:
    order_enc = cert.get("order")
    domains_enc = cert.get("domains")
    trace = cert.get("trace")
    if (
        not isinstance(order_enc, list)
        or not isinstance(domains_enc, list)
        or len(order_enc) != len(domains_enc)
        or not isinstance(trace, dict)
    ):
        raise _Reject("bad_format", "malformed refutation trace")

    read = statement.read
    order = [read(v) for v in order_enc]
    if frozenset(order) != statement.vertices or len(order) != len(
        statement.vertices
    ):
        raise _Reject(
            "order_not_permutation",
            "vertex order is not a permutation of the complex vertices",
        )
    domains: List[List[Any]] = []
    for vertex, domain_enc in zip(order, domains_enc):
        domain = [read(out) for out in domain_enc]
        if len(set(domain)) != len(domain) or set(domain) != set(
            statement.domain(vertex)
        ):
            raise _Reject(
                "domain_mismatch",
                "listed candidate domain differs from the Delta-derived one",
            )
        domains.append(domain)

    found, nodes = _replay(statement, order, domains)
    if found is not None:
        raise _Reject(
            "map_exists",
            "replay found a carried map; the unsolvability claim is false",
        )
    claimed_nodes = trace.get("nodes_explored")
    if claimed_nodes != nodes:
        raise _Reject(
            "trace_mismatch",
            f"replay visited {nodes} nodes, trace claims {claimed_nodes}",
        )
    return CheckReport(
        valid=True,
        kind="unsolvable",
        verdict="unsolvable",
        reason="ok",
        vertices_checked=len(order),
        simplices_checked=len(statement.simplices),
        nodes_replayed=nodes,
    )


def _replay(
    statement: _Statement,
    order: List[Any],
    domains: List[List[Any]],
) -> Tuple[Optional[Dict[Any, Any]], int]:
    """Exhaustive backtrack over the given order/domains.

    An independent re-implementation of the decision procedure's
    iterative DFS: same node accounting (one node per candidate tried),
    same constraint discipline (each closure simplex checked once, when
    its latest vertex in ``order`` is assigned) — so a faithful
    refutation trace replays to the identical node count.
    """
    rank = {vertex: index for index, vertex in enumerate(order)}
    # Per vertex: the simplices it completes, each with its allowed images.
    firing: Dict[Any, List[Tuple[Tuple[Any, ...], FrozenSet[FrozenSet[Any]]]]] = {
        vertex: [] for vertex in order
    }
    for sigma in statement.simplices:
        last = max(sigma, key=lambda v: rank[v])
        firing[last].append(
            (tuple(sigma), statement.allowed(statement.carrier(sigma)))
        )

    assignment: Dict[Any, Any] = {}
    nodes = 0
    total = len(order)
    if total == 0:
        return {}, 0
    choice_index = [0] * total
    depth = 0
    while True:
        vertex = order[depth]
        domain = domains[depth]
        advanced = False
        while choice_index[depth] < len(domain):
            candidate = domain[choice_index[depth]]
            choice_index[depth] += 1
            nodes += 1
            assignment[vertex] = candidate
            consistent = True
            for sigma, allowed in firing[vertex]:
                image = frozenset([assignment[v] for v in sigma])
                if image not in allowed:
                    consistent = False
                    break
            if consistent:
                advanced = True
                break
            del assignment[vertex]
        if advanced:
            if depth + 1 == total:
                return dict(assignment), nodes
            depth += 1
            choice_index[depth] = 0
        else:
            if vertex in assignment:
                del assignment[vertex]
            depth -= 1
            if depth < 0:
                return None, nodes
            assignment.pop(order[depth], None)


def _check_budget(cert: Dict[str, Any], statement: _Statement) -> CheckReport:
    read = statement.read
    partial: Dict[Any, Any] = {}
    for pair in cert.get("partial", ()):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise _Reject("bad_format", "malformed partial-assignment entry")
        partial[read(pair[0])] = read(pair[1])
    stray = set(partial) - statement.vertices
    if stray:
        raise _Reject(
            "inconsistent_partial",
            "partial assignment mentions vertices outside the complex",
        )
    checked = 0
    for vertex, out in partial.items():
        if _color(vertex) != _color(out):
            raise _Reject(
                "inconsistent_partial", "partial assignment breaks colors"
            )
        if out not in statement.domain(vertex):
            raise _Reject(
                "inconsistent_partial",
                "partial assignment uses an out-of-domain candidate",
            )
    for sigma in statement.simplices:
        if all(v in partial for v in sigma):
            image = frozenset(partial[v] for v in sigma)
            if image not in statement.allowed(statement.carrier(sigma)):
                raise _Reject(
                    "inconsistent_partial",
                    "partial assignment violates a carrier constraint",
                )
            checked += 1
    return CheckReport(
        valid=True,
        kind="budget",
        verdict="undecided",
        reason="ok",
        detail="stub; not a solvability verdict",
        vertices_checked=len(partial),
        simplices_checked=checked,
    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def check(cert: Any) -> CheckReport:
    """Validate one certificate document; never raises."""
    kind = "unknown"
    try:
        if not isinstance(cert, dict):
            raise _Reject("bad_format", "certificate must be a JSON object")
        if cert.get("format") != CERT_FORMAT:
            raise _Reject(
                "bad_format", f"unknown format {cert.get('format')!r}"
            )
        if cert.get("version") not in SUPPORTED_VERSIONS:
            raise _Reject(
                "unsupported_version",
                f"certificate version {cert.get('version')!r} not supported",
            )
        kind = cert.get("kind", "unknown")
        statement = _Statement(cert.get("statement"))
        if kind == "solvable":
            return _check_solvable(cert, statement)
        if kind == "unsolvable":
            return _check_unsolvable(cert, statement)
        if kind == "budget":
            return _check_budget(cert, statement)
        raise _Reject("unknown_kind", f"unknown certificate kind {kind!r}")
    except _Reject as rejection:
        return CheckReport(
            valid=False,
            kind=kind if isinstance(kind, str) else "unknown",
            verdict="invalid",
            reason=rejection.reason,
            detail=rejection.detail,
        )
    except Exception as exc:  # malformed beyond recognition
        return CheckReport(
            valid=False,
            kind=kind if isinstance(kind, str) else "unknown",
            verdict="invalid",
            reason="bad_format",
            detail=f"{type(exc).__name__}: {exc}",
        )


def check_bytes(data: bytes) -> CheckReport:
    """Validate a certificate from its on-disk bytes."""
    try:
        cert = json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        return CheckReport(
            valid=False,
            kind="unknown",
            verdict="invalid",
            reason="bad_format",
            detail=f"unparsable certificate file: {exc}",
        )
    return check(cert)

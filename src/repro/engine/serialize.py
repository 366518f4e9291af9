"""Canonical serialization and content digests for engine artifacts.

Every expensive object the engine caches or ships across process
boundaries — complexes, subdivision vertices, affine tasks, adversaries,
agreement functions, tasks, solution maps — round-trips through a
single canonical codec:

* ``serialize(x)`` produces deterministic JSON text: composite values
  are tagged arrays, and the elements of every set-like value are
  sorted by their own encoded form, so two equal objects *always*
  produce identical bytes regardless of construction order, hash
  randomization, or the process that encoded them.  The text is built
  bottom-up: each node is rendered once and a set's text is its
  members' sorted texts joined, which is exactly
  ``json.dumps(encode(x))`` with the reference encoder below;
* ``deserialize(text)`` rebuilds the value (``deserialize(serialize(x))
  == x`` for every supported type with an equality notion);
* ``digest(x)`` is the content address: a SHA-256 over the canonical
  bytes, salted with :data:`SCHEME_VERSION` so that any change to the
  encoding scheme invalidates every previously cached artifact at once.

Tasks (``repro.tasks.task.Task``) carry an opaque ``Delta`` callable,
so they are encoded *by tabulation*: the table of allowed outputs over
all non-empty participations.  That is exactly the view the FACT
decision procedure consults, hence sufficient for solvability queries;
the decoded task's input complex is the standard simplex.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from typing import Any, Dict, FrozenSet, Iterable, List

from ..adversaries.adversary import Adversary
from ..adversaries.agreement import AgreementFunction
from ..core.affine import AffineTask
from ..solver.api import SolveRequest
from ..topology.chromatic import ChromaticComplex, ChrVertex
from ..topology.complex import SimplicialComplex
from ..tasks.task import OutputVertex, Task

#: Version of the encoding scheme.  Bump on ANY change to the encoders
#: below — the version participates in every digest, so a bump atomically
#: invalidates all previously cached artifacts (see docs/engine.md).
SCHEME_VERSION = 1

_DIGEST_SALT = f"repro.engine:v{SCHEME_VERSION}:"


class SerializationError(TypeError):
    """Raised when a value has no canonical encoding."""


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
#: The canonical JSON text of an already-encoded structure.  One shared
#: encoder: ``json.dumps`` with options builds a new one on every call.
_canon_text = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=True
).encode


def _sorted_canonical(encoded_items: List[Any]) -> List[Any]:
    """Sort encoded elements by their canonical text (set canonicalization)."""
    return sorted(encoded_items, key=_canon_text)


def _task_table(task: Task) -> Dict[FrozenSet[int], FrozenSet]:
    """Tabulate ``Delta`` over all non-empty participations."""
    from itertools import combinations

    table = {}
    for size in range(1, task.n + 1):
        for combo in combinations(range(task.n), size):
            participants = frozenset(combo)
            table[participants] = task.allowed_outputs(participants)
    return table


#: Rendering an affine task or a tabulated ``Delta`` is itself expensive
#: (a cache-key digest would otherwise cost as much as a cache read), so
#: the canonical text of the big immutable artifact types is memoized,
#: together with its encoding once :func:`encode` asks for it.  Keys are
#: held weakly and compared by value, so equal artifacts share one entry
#: and the memo cannot outlive its objects.  Both forms in an entry are
#: made from the entry's own artifact, so a certificate statement lifted
#: from :func:`encode` always matches the :func:`digest` recorded beside
#: it, even for equal artifacts under different display names.
_MEMOIZED_TYPES = (
    ChromaticComplex,
    SimplicialComplex,
    AffineTask,
    AgreementFunction,
    Adversary,
    Task,
)
_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def encode(obj: Any) -> Any:
    """Encode a value as a canonical JSON-ready structure."""
    if isinstance(obj, _MEMOIZED_TYPES):
        entry = _memo_entry(obj)
        if entry[1] is None:
            key = entry[2]()  # None only while the key is being collected
            entry[1] = _encode(obj if key is None else key)
        return entry[1]
    return _encode(obj)


class SharedCodec:
    """One canonical text and one encoding per distinct object.

    Within one certificate or one artifact encoding the same vertex —
    and the same sub-vertex inside the carriers of deeper ones, the same
    output simplex — recurs many times.  Texts are built bottom-up and
    memoized by object identity (the object is held, so its id cannot be
    reused while the codec lives), and equal texts share one encoding.
    Nothing is keyed by value: equal values need not have equal texts
    (``1 == True``).  Shared encodings are read-only;
    ``text(x) == _text(x)`` and ``encoding(x) == encode(x)``.
    """

    __slots__ = ("_texts", "_encodings")

    def __init__(self) -> None:
        self._texts: Dict[int, tuple] = {}
        self._encodings: Dict[str, Any] = {}

    def text(self, obj: Any) -> str:
        if type(obj) is int:
            return int.__repr__(obj)
        entry = self._texts.get(id(obj))
        if entry is None:
            kind = type(obj)
            if kind is frozenset:
                text = '["fset",[' + ",".join(sorted(map(self.text, obj))) + "]]"
            elif kind is ChrVertex or kind is OutputVertex:
                text = '["%s",%s,%s]' % (
                    "chrv" if kind is ChrVertex else "outv",
                    self.text(obj[0]),
                    self.text(obj[1]),
                )
            else:
                text = _text(obj)
            entry = self._texts[id(obj)] = (obj, text)
        return entry[1]

    def encoding(self, obj: Any) -> Any:
        if type(obj) is int:
            return obj
        text = self.text(obj)
        encoding = self._encodings.get(text)
        if encoding is None:
            kind = type(obj)
            if kind is frozenset:
                members = sorted(obj, key=self.text)
                encoding = ["fset", list(map(self.encoding, members))]
            elif kind is ChrVertex or kind is OutputVertex:
                encoding = [
                    "chrv" if kind is ChrVertex else "outv",
                    self.encoding(obj[0]),
                    self.encoding(obj[1]),
                ]
            else:
                encoding = encode(obj)
            self._encodings[text] = encoding
        return encoding


def _facet_encodings(facets: FrozenSet[FrozenSet[Any]]) -> List[Any]:
    """The facets' ``fset`` encodings in canonical (text) order.

    A vertex lies in several facets, and a complex's encoding outlives
    the call (certificates embed it): each distinct vertex and
    sub-vertex is rendered and encoded once (:class:`SharedCodec`), and
    facets are sorted by the texts built on the way.
    """
    codec = SharedCodec()
    return list(map(codec.encoding, sorted(facets, key=codec.text)))


def _task_encoding(task: Task) -> List[Any]:
    """``["task", n, name, table]``, each table row's parts encoded and
    rendered once and the rows sorted by the texts built on the way."""
    codec = SharedCodec()
    rows = sorted(
        (
            (
                "[" + codec.text(participants) + "," + codec.text(outputs) + "]",
                [codec.encoding(participants), codec.encoding(outputs)],
            )
            for participants, outputs in _task_table(task).items()
        ),
        key=lambda row: row[0],
    )
    return ["task", task.n, task.name, [row for _, row in rows]]


def _facet_texts(facets: FrozenSet[FrozenSet[Any]]) -> str:
    """The facets' texts, sorted and joined; one text per vertex."""
    return ",".join(sorted(map(SharedCodec().text, facets)))


def _encode(obj: Any) -> Any:
    """The reference encoder: ``serialize(x) == _canon_text(_encode(x))``."""
    if obj is None or isinstance(obj, (bool, str, float)):
        return obj
    if isinstance(obj, int):
        return obj
    # NamedTuple vertex types must be matched before the generic tuple.
    if isinstance(obj, ChrVertex):
        return ["chrv", encode(obj.color), encode(obj.carrier)]
    if isinstance(obj, OutputVertex):
        return ["outv", encode(obj.process), encode(obj.value)]
    if isinstance(obj, tuple):
        return ["tuple", [encode(member) for member in obj]]
    if isinstance(obj, list):
        return ["list", [encode(member) for member in obj]]
    if isinstance(obj, (frozenset, set)):
        return ["fset", _sorted_canonical([encode(member) for member in obj])]
    if isinstance(obj, dict):
        pairs = [[encode(key), encode(value)] for key, value in obj.items()]
        return ["dict", _sorted_canonical(pairs)]
    if isinstance(obj, ChromaticComplex):
        return ["ccx", _facet_encodings(obj.facets)]
    if isinstance(obj, SimplicialComplex):
        return ["scx", _facet_encodings(obj.facets)]
    if isinstance(obj, AffineTask):
        return ["affine", obj.n, obj.depth, obj.name, encode(obj.complex)]
    if isinstance(obj, Adversary):
        return ["adv", obj.n, encode(obj.live_sets)]
    if isinstance(obj, AgreementFunction):
        table = [
            [encode(participants), value]
            for participants, value in obj.table().items()
            if participants
        ]
        return ["alpha", obj.n, obj.name, _sorted_canonical(table)]
    if isinstance(obj, Task):
        return _task_encoding(obj)
    if isinstance(obj, SolveRequest):
        # Additive tag (SCHEME_VERSION unchanged): request fields are
        # already normalized to canonical order at construction, so no
        # re-sorting happens here.  Its arity is part of every solve
        # digest, so a request encoded with a different arity lands on
        # a different cache key and is never misread.
        return [
            "solvereq",
            encode(obj.affine),
            encode(obj.task),
            obj.budget,
            encode(obj.domain_overrides),
        ]
    raise SerializationError(
        f"no canonical encoding for {type(obj).__name__}: {obj!r}"
    )


# ----------------------------------------------------------------------
# Canonical text, built bottom-up
# ----------------------------------------------------------------------
# Each renderer returns ``_canon_text`` of what ``_encode`` builds for
# its type, from the texts of the parts: a sequence is its members'
# texts joined, a set-like value (set, dict, complex, tabulated table)
# its members' texts sorted as strings and joined.  Sorting texts is
# sorting by ``_canon_text`` key, so the order is the reference order.
# The recursion goes through ``_text``, never the public ``serialize``:
# a caller may wrap ``serialize`` (a tracer, a profiler) and must see
# one call per value, not one per node.  Vertices and scalars are never
# memoized by value: equal values need not have equal texts
# (``1 == True``); within one complex, vertices are rendered once each
# by identity (:class:`SharedCodec`).
_str_text = json.encoder.encode_basestring_ascii


def _text(obj: Any) -> str:
    """The canonical text of ``obj``."""
    if type(obj) is int:
        return int.__repr__(obj)
    render = _RENDERERS.get(type(obj))
    if render is None:
        render = _renderer_for(obj)
    return render(obj)


def _texts(members: Iterable[Any]) -> List[str]:
    # Process ids and encoding tags are the bulk of all members (a
    # certificate embeds encodings as lists): no call for them.
    return [
        int.__repr__(member)
        if type(member) is int
        else _str_text(member)
        if type(member) is str
        else _text(member)
        for member in members
    ]


def _raw(value: Any) -> str:
    """Text of a field ``_encode`` embeds as-is (not through ``encode``)."""
    return int.__repr__(value) if type(value) is int else _canon_text(value)


def _chrv_text(vertex: ChrVertex) -> str:
    return '["chrv",' + _text(vertex.color) + "," + _text(vertex.carrier) + "]"


def _outv_text(vertex: OutputVertex) -> str:
    return '["outv",' + _text(vertex.process) + "," + _text(vertex.value) + "]"


def _tuple_text(value: tuple) -> str:
    return '["tuple",[' + ",".join(_texts(value)) + "]]"


def _list_text(value: list) -> str:
    return '["list",[' + ",".join(_texts(value)) + "]]"


def _set_text(value: Any) -> str:
    return '["fset",[' + ",".join(sorted(_texts(value))) + "]]"


def _dict_text(value: dict) -> str:
    pairs = [
        "[" + _text(key) + "," + _text(item) + "]"
        for key, item in value.items()
    ]
    return '["dict",[' + ",".join(sorted(pairs)) + "]]"


def _ccx_text(complex_: ChromaticComplex) -> str:
    return '["ccx",[' + _facet_texts(complex_.facets) + "]]"


def _scx_text(complex_: SimplicialComplex) -> str:
    return '["scx",[' + _facet_texts(complex_.facets) + "]]"


def _affine_text(affine: AffineTask) -> str:
    fields = (
        _raw(affine.n),
        _raw(affine.depth),
        _raw(affine.name),
        _text(affine.complex),
    )
    return '["affine",' + ",".join(fields) + "]"


def _adversary_text(adversary: Adversary) -> str:
    return (
        '["adv",' + _raw(adversary.n) + "," + _text(adversary.live_sets) + "]"
    )


def _alpha_text(alpha: AgreementFunction) -> str:
    table = [
        "[" + _text(participants) + "," + _raw(value) + "]"
        for participants, value in alpha.table().items()
        if participants
    ]
    fields = (_raw(alpha.n), _raw(alpha.name), ",".join(sorted(table)))
    return '["alpha",%s,%s,[%s]]' % fields


def _task_text(task: Task) -> str:
    table = [
        "[" + _text(participants) + "," + _text(outputs) + "]"
        for participants, outputs in _task_table(task).items()
    ]
    fields = (_raw(task.n), _raw(task.name), ",".join(sorted(table)))
    return '["task",%s,%s,[%s]]' % fields


def _solve_request_text(request: SolveRequest) -> str:
    fields = (
        _text(request.affine),
        _text(request.task),
        _raw(request.budget),
        _text(request.domain_overrides),
    )
    return '["solvereq",' + ",".join(fields) + "]"


#: Renderers of the memoized artifact types, looked up by ``isinstance``.
_ARTIFACT_RENDERERS = (
    (ChromaticComplex, _ccx_text),
    (SimplicialComplex, _scx_text),
    (AffineTask, _affine_text),
    (AgreementFunction, _alpha_text),
    (Adversary, _adversary_text),
    (Task, _task_text),
)


def _memo_entry(obj: Any) -> List[Any]:
    """The ``[text, encoding or None, weakref to key]`` entry of ``obj``."""
    entry = _MEMO.get(obj)
    if entry is None:
        render = next(
            render for cls, render in _ARTIFACT_RENDERERS if isinstance(obj, cls)
        )
        entry = _MEMO[obj] = [render(obj), None, weakref.ref(obj)]
    return entry


def _memo_text(obj: Any) -> str:
    return _memo_entry(obj)[0]


#: Renderers in ``_encode``'s dispatch order; subclasses are matched by
#: ``isinstance`` here (vertex NamedTuples before the generic tuple).
_RENDER_ORDER = (
    (_MEMOIZED_TYPES, _memo_text),
    ((type(None), bool, str, float, int), _canon_text),
    ((ChrVertex,), _chrv_text),
    ((OutputVertex,), _outv_text),
    ((tuple,), _tuple_text),
    ((list,), _list_text),
    ((frozenset, set), _set_text),
    ((dict,), _dict_text),
    ((SolveRequest,), _solve_request_text),
)

#: Exact-type fast path of :func:`_text`.
_RENDERERS = {
    cls: render for classes, render in _RENDER_ORDER for cls in classes
}
_RENDERERS[str] = _str_text


def _renderer_for(obj: Any):
    for classes, render in _RENDER_ORDER:
        if isinstance(obj, classes):
            return render
    raise SerializationError(
        f"no canonical encoding for {type(obj).__name__}: {obj!r}"
    )


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def decode(encoded: Any) -> Any:
    """Inverse of :func:`encode`."""
    if encoded is None or isinstance(encoded, (bool, int, float, str)):
        return encoded
    if not isinstance(encoded, list) or not encoded:
        raise SerializationError(f"malformed encoding: {encoded!r}")
    tag = encoded[0]
    if tag == "chrv":
        return ChrVertex(decode(encoded[1]), decode(encoded[2]))
    if tag == "outv":
        return OutputVertex(decode(encoded[1]), decode(encoded[2]))
    if tag == "tuple":
        return tuple(decode(member) for member in encoded[1])
    if tag == "list":
        return [decode(member) for member in encoded[1]]
    if tag == "fset":
        return frozenset(decode(member) for member in encoded[1])
    if tag == "dict":
        return {decode(key): decode(value) for key, value in encoded[1]}
    if tag == "ccx":
        return ChromaticComplex([decode(facet) for facet in encoded[1]])
    if tag == "scx":
        return SimplicialComplex([decode(facet) for facet in encoded[1]])
    if tag == "affine":
        _, n, depth, name, complex_enc = encoded
        return AffineTask(
            n, depth, decode(complex_enc), name=name, validate=False
        )
    if tag == "adv":
        return Adversary(encoded[1], decode(encoded[2]))
    if tag == "alpha":
        _, n, name, table_enc = encoded
        table = {
            decode(participants): value for participants, value in table_enc
        }
        return AgreementFunction(n, table, name=name, validate=False)
    if tag == "task":
        return _decode_task(encoded)
    if tag == "solvereq":
        if len(encoded) != 5:
            raise SerializationError(
                f"solvereq has 5 elements, got {len(encoded)}"
            )
        _, affine_enc, task_enc, budget, overrides_enc = encoded
        return SolveRequest(
            affine=decode(affine_enc),
            task=decode(task_enc),
            budget=budget,
            domain_overrides=decode(overrides_enc),
        )
    raise SerializationError(f"unknown tag {tag!r}")


def _decode_task(encoded: Any) -> Task:
    from ..topology.chromatic import standard_simplex

    _, n, name, table_enc = encoded
    table = {
        decode(participants): decode(outputs)
        for participants, outputs in table_enc
    }

    def delta(participants):
        return table.get(frozenset(participants), frozenset())

    all_outputs = set()
    for outputs in table.values():
        all_outputs.update(outputs)
    return Task(
        n,
        standard_simplex(n),
        ChromaticComplex(all_outputs),
        delta,
        name=name,
    )


# ----------------------------------------------------------------------
# Public surface
# ----------------------------------------------------------------------
def serialize(obj: Any) -> str:
    """Canonical, deterministic JSON text for a supported value."""
    return _text(obj)


def deserialize(text: str) -> Any:
    """Rebuild a value from its canonical JSON text."""
    return decode(json.loads(text))


def digest(obj: Any) -> str:
    """The content address of a value: SHA-256 of its canonical bytes."""
    payload = _DIGEST_SALT + serialize(obj)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def tasks_equivalent(a: Task, b: Task) -> bool:
    """Equality of tasks as the decision procedure sees them.

    ``Task`` has no ``__eq__`` (it wraps an opaque callable); two tasks
    are interchangeable for solvability queries iff their tabulated
    ``Delta`` agrees on every participation.
    """
    return a.n == b.n and _task_table(a) == _task_table(b)

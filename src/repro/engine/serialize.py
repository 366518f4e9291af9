"""Canonical serialization and content digests for engine artifacts.

Every expensive object the engine caches or ships across process
boundaries — complexes, subdivision vertices, affine tasks, adversaries,
agreement functions, tasks, solution maps — round-trips through a
single canonical codec:

* ``serialize(x)`` produces deterministic JSON text: composite values
  are tagged arrays, and the elements of every set-like value are
  sorted by their own encoded form, so two equal objects *always*
  produce identical bytes regardless of construction order, hash
  randomization, or the process that encoded them;
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
from typing import Any, Dict, FrozenSet, List

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


#: Encoding an affine task or a tabulated ``Delta`` is itself expensive
#: (a cache-key digest would otherwise cost as much as a cache read), so
#: encodings of the big immutable artifact types are memoized.  Keys are
#: held weakly and compared by value, so equal artifacts share one
#: encoding and the memo cannot outlive its objects.
_MEMOIZED_TYPES = (
    ChromaticComplex,
    SimplicialComplex,
    AffineTask,
    AgreementFunction,
    Adversary,
    Task,
)
_ENCODE_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def encode(obj: Any) -> Any:
    """Encode a value as a canonical JSON-ready structure."""
    if isinstance(obj, _MEMOIZED_TYPES):
        try:
            return _ENCODE_MEMO[obj]
        except KeyError:
            encoded = _encode(obj)
            _ENCODE_MEMO[obj] = encoded
            return encoded
    return _encode(obj)


def _encode(obj: Any) -> Any:
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
        return [
            "ccx",
            _sorted_canonical([encode(facet) for facet in obj.facets]),
        ]
    if isinstance(obj, SimplicialComplex):
        return [
            "scx",
            _sorted_canonical([encode(facet) for facet in obj.facets]),
        ]
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
        table = [
            [encode(participants), encode(outputs)]
            for participants, outputs in _task_table(obj).items()
        ]
        return ["task", obj.n, obj.name, _sorted_canonical(table)]
    if isinstance(obj, SolveRequest):
        # Additive tag (SCHEME_VERSION unchanged): request fields are
        # already normalized to canonical order at construction, so no
        # re-sorting happens here.  The kernel is part of the encoding
        # — hence of cache digests — because non-tree-identical kernels
        # return different node counts for the same query.
        return [
            "solvereq",
            encode(obj.affine),
            encode(obj.task),
            obj.budget,
            encode(obj.domain_overrides),
            encode(obj.resume),
            obj.kernel,
        ]
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
        _, affine_enc, task_enc, budget, overrides_enc, resume_enc, kernel = (
            encoded
        )
        return SolveRequest(
            affine=decode(affine_enc),
            task=decode(task_enc),
            budget=budget,
            domain_overrides=decode(overrides_enc),
            resume=decode(resume_enc),
            kernel=kernel,
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
#: Canonical text of the big artifact types, memoized like their
#: encodings: ``json.dumps`` over a subdivision-sized encoding costs as
#: much as the encode itself, and digests (cache keys, certificate
#: statements) re-serialize the same artifacts constantly.
_SERIALIZE_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def serialize(obj: Any) -> str:
    """Canonical, deterministic JSON text for a supported value."""
    if isinstance(obj, _MEMOIZED_TYPES):
        try:
            return _SERIALIZE_MEMO[obj]
        except KeyError:
            text = _canon_text(encode(obj))
            _SERIALIZE_MEMO[obj] = text
            return text
    return _canon_text(encode(obj))


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

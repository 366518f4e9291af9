"""Portable solvability certificates: the canonical witness format.

FACT (Theorem 16) is a biconditional, so every verdict the decision
procedure emits has a finite witness:

* *solvable* — the chromatic simplicial map ``phi : L -> O`` itself,
  together with, per simplex of ``L``, its image and the carrier face
  of ``s`` whose ``Delta`` value must contain that image;
* *unsolvable* — the search's vertex order, the per-vertex candidate
  domains, and a trace proving the backtrack was exhaustive (replayable
  node-for-node);
* *budget* — a stub, not a verdict: the search ran out of nodes
  (:class:`~repro.tasks.solvability.SearchBudgetExceeded`) before
  deciding.

A certificate is a plain JSON document (dict of strings, ints and
tagged vertex encodings) and therefore travels unchanged through the
engine's canonical codec, the artifact cache, the service wire and
certificate files on disk.  The *statement* block embeds the task's
tabulated ``Delta`` and the affine complex's facets in exactly the form
:mod:`repro.engine.serialize` encodes them, plus the content digests the
engine uses as ``solve`` cache keys — which lets the independent checker
(:mod:`repro.certify.checker`, stdlib-only) re-derive those digests from
the certificate body alone and bind the witness to the statement.

Builders here may import anything; only the checker is a trusted base.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..core.affine import AffineTask
from ..engine.serialize import SharedCodec, _canon_text, decode, digest, encode
from ..tasks.solvability import search_structure
from ..tasks.task import OutputVertex, Task
from ..topology.chromatic import ChrVertex

#: Certificate format identifier and version.  Bump the version on any
#: incompatible change to the document layout; the checker rejects
#: versions it does not know with ``unsupported_version``.
CERT_FORMAT = "repro.certify"
CERT_VERSION = 1

Cert = Dict[str, Any]


# ----------------------------------------------------------------------
# The statement block
# ----------------------------------------------------------------------
def statement_for(affine: AffineTask, task: Task) -> Dict[str, Any]:
    """The claim a certificate is about: ``(L, T)`` plus their digests.

    ``facets`` and ``delta`` are lifted verbatim from the engine's
    canonical encodings of ``L`` and ``T``, so the digests recomputed by
    the independent checker from the certificate body equal the digests
    recorded here — the same content addresses the engine cache keys
    ``solve`` and ``certify`` jobs under.
    """
    affine_enc = encode(affine)  # ["affine", n, depth, name, ["ccx", [...]]]
    task_enc = encode(task)  # ["task", n, name, [[P, outputs], ...]]
    # Every field comes from the *encoding*, never from the object: the
    # engine memoizes encodings by value equality, so an equal artifact
    # constructed under a different display name shares the memoized
    # encoding — mixing object attributes with encoded fields would
    # break the digest binding for exactly those artifacts.
    return {
        "n": affine_enc[1],
        "depth": affine_enc[2],
        "affine_name": affine_enc[3],
        "task_name": task_enc[2],
        "affine_digest": digest(affine),
        "task_digest": digest(task),
        "facets": affine_enc[4][1],
        "delta": task_enc[3],
    }


def _header(kind: str, affine: AffineTask, task: Task) -> Cert:
    return {
        "format": CERT_FORMAT,
        "version": CERT_VERSION,
        "kind": kind,
        "statement": statement_for(affine, task),
    }


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def solvable_cert(
    affine: AffineTask,
    task: Task,
    mapping: Dict[ChrVertex, OutputVertex],
    nodes_explored: Optional[int] = None,
) -> Cert:
    """A positive certificate: the map plus per-simplex image/carrier.

    The per-simplex entries are redundant given the map — deliberately:
    the checker verifies each entry *and* that the entries exhaust the
    downward closure of the facets, so a certificate cannot silently
    omit a constraint.
    """
    cert = _header("solvable", affine, task)
    # A read-out of the search structure: its simplices are already in
    # ``simplex_key`` order with their carriers lowered to ``s``, and
    # each vertex and output vertex is rendered and encoded once.
    structure = search_structure(affine)
    codec = SharedCodec()
    vertices = structure.vertices
    vertex_enc = list(map(codec.encoding, vertices))
    outs = [mapping[vertex] for vertex in vertices]
    out_enc = list(map(codec.encoding, outs))
    out_text = list(map(codec.text, outs))
    cert["map"] = [
        [vertex_enc[p], out_enc[p]] for p in structure.key_positions
    ]
    vertex_text = list(map(codec.text, vertices))
    by_text = sorted(range(len(vertices)), key=vertex_text.__getitem__)
    text_rank = [0] * len(by_text)
    for rank, position in enumerate(by_text):
        text_rank[position] = rank

    entries: List[Dict[str, Any]] = []
    for positions, carrier in zip(
        structure.simplices, structure.participation
    ):
        entries.append(
            {
                "simplex": [
                    vertex_enc[p]
                    for p in sorted(positions, key=text_rank.__getitem__)
                ],
                "carrier": sorted(carrier),
                "image": sorted({out_text[p] for p in positions}),
            }
        )
    cert["simplices"] = entries
    cert["search"] = {"nodes_explored": nodes_explored}
    return cert


def unsolvable_cert(affine: AffineTask, task: Task, search) -> Cert:
    """A negative certificate from a completed, map-less search.

    ``search`` is the :class:`~repro.tasks.solvability.MapSearch` whose
    ``search()`` just returned ``None``: its vertex order and candidate
    domains (in canonical candidate order) are the refutation trace —
    an independent exhaustive backtrack over exactly these domains, in
    exactly this order, visits ``nodes_explored`` assignments and finds
    no carried map.  The checker recomputes the domains from the
    statement's ``Delta`` table (so truncated domains are rejected) and
    replays the backtrack node-for-node.
    """
    if getattr(search, "domains_overridden", False):
        raise ValueError(
            "refutations over override-restricted domains are partial; "
            "only full searches yield unsolvable certificates"
        )
    cert = _header("unsolvable", affine, task)
    codec = SharedCodec()
    cert["order"] = list(map(codec.encoding, search.vertices))
    cert["domains"] = [
        list(map(codec.encoding, search.domains[vertex]))
        for vertex in search.vertices
    ]
    cert["trace"] = {"nodes_explored": search.nodes_explored}
    return cert


def budget_stub(
    affine: AffineTask,
    task: Task,
    exc,
    budget: Optional[int] = None,
) -> Cert:
    """A budget stub from a :class:`SearchBudgetExceeded`.

    Not a verdict: it records how many nodes the search explored before
    the budget fired.  The trace field keeps its v1 name
    ``node_budget`` — the certificate format is independent of the
    API's kwarg spelling.
    """
    cert = _header("budget", affine, task)
    cert["trace"] = {
        "nodes_explored": exc.nodes_explored,
        "node_budget": budget,
    }
    return cert


def mapping_of(cert: Cert) -> Dict[ChrVertex, OutputVertex]:
    """Rebuild the carried map of a solvable certificate."""
    if cert.get("kind") != "solvable":
        raise ValueError(f"not a solvable certificate: {cert.get('kind')!r}")
    return {decode(vertex): decode(out) for vertex, out in cert["map"]}


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------
def cert_to_bytes(cert: Cert) -> bytes:
    """The canonical on-disk form: sorted-key JSON, one trailing newline.

    Deterministic byte-for-byte: two runs producing the same certificate
    produce identical files.
    """
    return (_canon_text(cert) + "\n").encode("utf-8")


def write_cert(path, cert: Cert) -> None:
    """Write a certificate file at ``path`` (canonical bytes)."""
    with open(path, "wb") as handle:
        handle.write(cert_to_bytes(cert))


def read_cert(path) -> Cert:
    """Load a certificate file; raises ``ValueError`` on non-JSON."""
    with open(path, "rb") as handle:
        loaded = json.loads(handle.read().decode("utf-8"))
    if not isinstance(loaded, dict):
        raise ValueError(f"{path}: certificate must be a JSON object")
    return loaded

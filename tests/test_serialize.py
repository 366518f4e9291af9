"""Round-trip and digest-stability tests for the engine codec.

The cache and the process-pool executor both depend on two properties
of :mod:`repro.engine.serialize`:

* every supported artifact round-trips (``deserialize(serialize(x)) ==
  x``, or table-equivalence for tasks);
* equal values digest identically regardless of construction order —
  the content address must not see set iteration order, dict insertion
  order, or hash randomization.
"""

from __future__ import annotations

import json
import weakref
from contextlib import contextmanager
from importlib import import_module
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries import (
    Adversary,
    AgreementFunction,
    agreement_function_of,
    build_catalogue,
    t_resilience_alpha,
)
from repro.analysis.landscape import alpha_signature
from repro.core import AffineTask, r_affine
from repro.engine import (
    SerializationError,
    deserialize,
    digest,
    serialize,
    tasks_equivalent,
)
from repro.solver import SolveRequest
from repro.sweep.driver import GridSpec
from repro.tasks.set_consensus import set_consensus_task
from repro.tasks.solvability import MapSearch
from repro.tasks.task import OutputVertex
from repro.tasks.test_and_set import k_test_and_set_task
from repro.topology import chr_complex
from repro.topology.chromatic import ChromaticComplex, ChrVertex
from repro.topology.complex import SimplicialComplex

serialize_module = import_module("repro.engine.serialize")

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("depth", [1, 2])
def test_chr_complex_round_trip(n, depth):
    complex_ = chr_complex(n, depth)
    restored = deserialize(serialize(complex_))
    assert restored == complex_
    assert restored.facets == complex_.facets


def test_catalogue_adversaries_round_trip():
    for entry in build_catalogue(3):
        adversary = entry.adversary
        restored = deserialize(serialize(adversary))
        assert restored == adversary
        assert digest(restored) == digest(adversary)


def test_agreement_function_round_trip(alpha_1res, alpha_fig5b):
    for alpha in (alpha_1res, alpha_fig5b):
        restored = deserialize(serialize(alpha))
        assert restored == alpha
        assert restored.table() == alpha.table()


def test_affine_task_round_trip(ra_1of, ra_1res, ra_fig5b):
    for affine in (ra_1of, ra_1res, ra_fig5b):
        restored = deserialize(serialize(affine))
        assert restored == affine
        assert restored.n == affine.n
        assert restored.depth == affine.depth
        assert restored.complex == affine.complex


def test_task_round_trip_by_tabulation():
    task = set_consensus_task(3, 2)
    restored = deserialize(serialize(task))
    assert tasks_equivalent(restored, task)
    # The decoded task drives the decision procedure identically.
    assert serialize(restored) == serialize(task)
    assert digest(restored) == digest(task)


def test_solution_mapping_round_trip(ra_1res):
    task = set_consensus_task(3, 2)
    mapping = MapSearch(ra_1res, task).search()
    assert mapping is not None
    restored = deserialize(serialize(mapping))
    assert restored == mapping


def test_scalars_and_containers_round_trip():
    values = [
        None,
        True,
        0,
        -7,
        3.5,
        "text",
        (1, (2, 3)),
        [1, [2, "x"]],
        frozenset({frozenset({1, 2}), frozenset({0})}),
        {frozenset({0, 1}): (1, 2), "k": None},
    ]
    for value in values:
        assert deserialize(serialize(value)) == value


# ----------------------------------------------------------------------
# Digest stability
# ----------------------------------------------------------------------
def test_digest_independent_of_set_construction_order():
    forward = Adversary(3, [frozenset({0}), frozenset({1, 2}), frozenset({0, 1, 2})])
    backward = Adversary(3, [frozenset({0, 1, 2}), frozenset({1, 2}), frozenset({0})])
    assert digest(forward) == digest(backward)


def test_digest_independent_of_dict_insertion_order():
    one = {"a": 1, "b": 2, frozenset({1}): (3,)}
    other = {frozenset({1}): (3,), "b": 2, "a": 1}
    assert serialize(one) == serialize(other)
    assert digest(one) == digest(other)


def test_digest_of_rebuilt_complex_is_stable():
    complex_ = chr_complex(3, 1)
    rebuilt = type(complex_)(sorted(complex_.facets, key=serialize))
    assert digest(rebuilt) == digest(complex_)


def test_equivalent_alphas_digest_identically():
    # Two independently constructed but equal agreement functions.
    one = t_resilience_alpha(3, 1)
    other = t_resilience_alpha(3, 1)
    assert one is not other
    assert digest(one) == digest(other)


def test_distinct_values_digest_differently():
    assert digest(set_consensus_task(3, 1)) != digest(set_consensus_task(3, 2))
    assert digest(chr_complex(3, 1)) != digest(chr_complex(3, 2))


def test_r_affine_digest_matches_reconstruction(alpha_1res):
    assert digest(r_affine(alpha_1res)) == digest(r_affine(alpha_1res))


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------
def test_unknown_type_raises():
    class Opaque:
        pass

    with pytest.raises(SerializationError):
        serialize(Opaque())


def test_malformed_text_raises():
    with pytest.raises(SerializationError):
        deserialize('["no-such-tag",1]')


# ----------------------------------------------------------------------
# The bottom-up text against the reference encoder
# ----------------------------------------------------------------------
@contextmanager
def _fresh_memo():
    """A private artifact memo, and an ``encode`` that memoizes nothing.

    Equal artifacts share one memo entry, so an earlier equal value
    under another display name would answer for a generated one; and
    the reference must not read texts the renderers produced.
    """
    with mock.patch.object(
        serialize_module, "_MEMO", weakref.WeakKeyDictionary()
    ), mock.patch.object(serialize_module, "encode", serialize_module._encode):
        yield


def _reference_text(value):
    return serialize_module._canon_text(serialize_module._encode(value))


def _assert_canonical(value):
    with _fresh_memo():
        text = serialize(value)
        assert text == _reference_text(value)
    return text


# Process ids past 9 make text order differ from numeric order.
_ids = st.integers(min_value=0, max_value=12)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 1e300, -1e300, 5e-324]),
    st.text(max_size=6),
)
_chr1 = st.builds(ChrVertex, _ids, st.frozensets(_ids, min_size=1, max_size=4))
_chr2 = st.builds(ChrVertex, _ids, st.frozensets(_chr1, min_size=1, max_size=3))
_outv = st.builds(OutputVertex, _ids, _scalars)
_hashable = st.recursive(
    st.one_of(_scalars, _chr1, _chr2, _outv),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.frozensets(inner, max_size=4),
    ),
    max_leaves=12,
)
_values = st.recursive(
    _hashable,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.sets(_hashable, max_size=4),
        st.dictionaries(_hashable, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(value=_values)
def test_bottom_up_text_matches_the_reference_encoder(value):
    text = _assert_canonical(value)
    assert deserialize(text) == value
    assert serialize(value) == text


# Artifacts are built from process ids only (never ``True`` for ``1``)
# and under one display name each: see ``_fresh_memo``.
_CHR2_FACETS = sorted(chr_complex(3, 2).facets, key=serialize)
_CHR2_VERTICES = sorted(chr_complex(3, 2).vertices, key=serialize)
_SUBSETS = [
    frozenset(combo)
    for size in range(1, 4)
    for combo in combinations(range(3), size)
]
_TASKS = [set_consensus_task(3, k) for k in (1, 2, 3)] + [
    set_consensus_task(2, 1),
    k_test_and_set_task(3, 1),
]

_chr2_complexes = st.lists(
    st.sampled_from(_CHR2_FACETS), min_size=1, max_size=8, unique=True
).map(ChromaticComplex)
_simplicial = st.lists(
    st.frozensets(_ids, min_size=1, max_size=4), min_size=1, max_size=6
).map(SimplicialComplex)
_affines = _chr2_complexes.map(
    lambda complex_: AffineTask(3, 2, complex_, name="L", validate=False)
)
_alphas = st.lists(
    st.integers(min_value=0, max_value=3),
    min_size=len(_SUBSETS),
    max_size=len(_SUBSETS),
).map(
    lambda values: AgreementFunction(
        3, dict(zip(_SUBSETS, values)), name="alpha", validate=False
    )
)
_adversaries = st.lists(
    st.sampled_from(_SUBSETS), min_size=1, max_size=7, unique=True
).map(lambda live_sets: Adversary(3, live_sets))
_overrides = st.dictionaries(
    st.sampled_from(_CHR2_VERTICES),
    st.lists(st.builds(OutputVertex, _ids, _ids), max_size=3),
    max_size=3,
)
_requests = st.builds(
    SolveRequest,
    affine=_affines,
    task=st.sampled_from(_TASKS),
    budget=st.one_of(st.none(), st.integers(min_value=1)),
    domain_overrides=st.one_of(st.none(), _overrides),
)


@settings(max_examples=60, deadline=None)
@given(
    artifact=st.one_of(
        _chr2_complexes, _simplicial, _affines, _alphas, _adversaries
    )
)
def test_artifact_text_matches_the_reference_encoder(artifact):
    text = _assert_canonical(artifact)
    assert deserialize(text) == artifact
    # Composites splice the memoized text of their artifact parts.
    with _fresh_memo():
        assert serialize((artifact, [artifact])) == _reference_text(
            (artifact, [artifact])
        )


@pytest.mark.parametrize("task", _TASKS, ids=lambda task: f"n{task.n}-{task.name}")
def test_task_text_matches_the_reference_encoder(task):
    text = _assert_canonical(task)
    restored = deserialize(text)
    assert tasks_equivalent(restored, task)
    assert serialize(restored) == text


@settings(max_examples=40, deadline=None)
@given(request=_requests)
def test_solve_request_text_matches_the_reference_encoder(request):
    text = _assert_canonical(request)
    with _fresh_memo():
        assert serialize(deserialize(text)) == text


def test_equal_vertices_over_one_and_true_keep_distinct_texts():
    # ``1 == True``, so a vertex memo keyed by value would merge these.
    pairs = [
        (OutputVertex(0, 1), OutputVertex(0, True)),
        (ChrVertex(0, frozenset({1})), ChrVertex(0, frozenset({True}))),
    ]
    for one, true in pairs:
        assert one == true
        assert serialize(one) != serialize(true)
        assert serialize([one, true]) == (
            '["list",[' + serialize(one) + "," + serialize(true) + "]]"
        )
    assert deserialize(serialize(OutputVertex(0, True))).value is True


def test_encoding_matches_the_memoized_text_under_another_name(ra_1res):
    # Equal artifacts share one memo entry whatever their display names;
    # a certificate lifts its statement from ``encode`` and records the
    # ``digest``, so both must come from the same entry.
    serialize(ra_1res)
    renamed = AffineTask(
        ra_1res.n, ra_1res.depth, ra_1res.complex, name="renamed", validate=False
    )
    assert renamed == ra_1res
    encoded = serialize_module.encode(renamed)
    assert serialize_module._canon_text(encoded) == serialize(renamed)


# ----------------------------------------------------------------------
# Golden digests: texts written by earlier versions still match
# ----------------------------------------------------------------------
def test_committed_landscape_digests_are_reproduced():
    """``SCHEME_VERSION`` 1 digests in a committed artifact stay valid."""
    doc = json.loads(
        (REPO_ROOT / "examples" / "landscape_n4_sampled.json").read_text(
            encoding="utf-8"
        )
    )
    assert GridSpec.from_doc(doc["grid"]).digest() == doc["grid_digest"]
    fair = [cell for cell in doc["cells"] if cell["alpha_digest"]]
    assert len(fair) == doc["summary"]["fair_cells"]
    for cell in fair:
        adversary = Adversary(cell["n"], [frozenset(s) for s in cell["live_sets"]])
        alpha = agreement_function_of(adversary)
        assert digest(alpha_signature(alpha)) == cell["alpha_digest"]


# ----------------------------------------------------------------------
# Complex encodings: one text per vertex, facets sorted by built text
# ----------------------------------------------------------------------
def _sorted_complex_encoding(complex_, tag):
    """A complex's encoding by re-sorting every level on ``_canon_text``
    of freshly encoded members (the construction before shared texts)."""
    canon = serialize_module._canon_text
    facets = [
        ["fset", sorted([serialize_module._encode(v) for v in facet], key=canon)]
        for facet in complex_.facets
    ]
    return [tag, sorted(facets, key=canon)]


def test_complex_encoding_matches_the_sorted_construction(ra_1res):
    complexes = [
        (chr_complex(3, 2), "ccx"),
        (ra_1res.complex, "ccx"),
        (chr_complex(3, 1).complex, "scx"),
        # Equal vertices with different texts, alone and under carriers.
        (
            SimplicialComplex(
                [
                    {OutputVertex(0, 1), OutputVertex(1, 2)},
                    {OutputVertex(0, True), OutputVertex(1, 3)},
                ]
            ),
            "scx",
        ),
        (
            ChromaticComplex(
                [
                    {ChrVertex(0, frozenset({1})), ChrVertex(1, frozenset({0}))},
                    {ChrVertex(0, frozenset({True})), ChrVertex(2, frozenset({0}))},
                ]
            ),
            "ccx",
        ),
    ]
    for complex_, tag in complexes:
        with _fresh_memo():
            encoded = serialize_module._encode(complex_)
            assert encoded == _sorted_complex_encoding(complex_, tag)
            text = serialize_module._canon_text(encoded)
            assert text == serialize(complex_)
    both = serialize(complexes[3][0])
    assert '["outv",0,true]' in both and '["outv",0,1]' in both


def test_shared_codec_keys_by_identity_not_value():
    codec = serialize_module.SharedCodec()
    one, true = ChrVertex(0, frozenset({1})), ChrVertex(0, frozenset({True}))
    for vertex in (one, true):
        assert codec.text(vertex) == serialize(vertex)
        assert codec.encoding(vertex) == serialize_module._encode(vertex)
    assert codec.text(one) != codec.text(true)
    # A new object with the same text shares the encoding object.
    copy = ChrVertex(0, frozenset({1}))
    assert codec.encoding(copy) is codec.encoding(one)

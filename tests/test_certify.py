"""Tests for ``repro.certify`` — certificates, the independent checker,
and the engine / service / CLI wiring.

The important invariants:

* every verdict the library can produce round-trips through a
  certificate the *independent* checker validates (fuzzed over random
  task mutations);
* forged certificates are rejected with the right machine-readable
  reason, one tamper per rejection code;
* a certificate in memory, parsed back from its bytes and read from
  its bytes gets one report, and the E11 reports are pinned by digest;
* the checker's per-vertex carrier folds agree with the direct fold;
* the negative verdict agrees with the Sperner counting obstruction;
* a budget stub carries no partial assignment, and the ``partial``
  of a legacy stub (written before it was dropped) is still checked;
* the checker is genuinely independent (stdlib-only, AST-enforced) yet
  stays in sync with the engine's digest scheme (test-enforced).
"""

from __future__ import annotations

import ast
import copy
import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries.agreement import agreement_function_of
from repro.adversaries.fairness import is_fair
from repro.analysis.landscape import all_adversaries
from repro.analysis.sperner import fuzz_sperner
from repro.certify import (
    CERT_FORMAT,
    CERT_VERSION,
    cert_to_bytes,
    certified_search,
    check,
    check_bytes,
    mapping_of,
    read_cert,
    unsolvable_cert,
    write_cert,
)
from repro.certify import checker as checker_module
from repro.cli import main
from repro.core import full_affine_task, r_affine
from importlib import import_module

from repro.engine import ArtifactCache, Engine, JobSpec
from repro.topology.chromatic import ChrVertex

# ``repro.engine.serialize`` the *module* — the package re-exports a
# function under the same name, shadowing the attribute.
serialize_module = import_module("repro.engine.serialize")
from repro.tasks.set_consensus import set_consensus_task
from repro.tasks.solvability import MapSearch, SearchBudgetExceeded
from repro.tasks.task import OutputVertex, Task


@pytest.fixture(scope="session")
def wf_affine():
    """The wait-free one-round task ``Chr s`` (3 processes)."""
    return full_affine_task(3, 1)


@pytest.fixture(scope="session")
def solvable_pair(ra_1res):
    """A known-solvable instance and its certificate."""
    task = set_consensus_task(3, 2)
    mapping, cert = certified_search(ra_1res, task)
    assert mapping is not None and cert["kind"] == "solvable"
    return mapping, cert


@pytest.fixture(scope="session")
def unsolvable_cert_wf(wf_affine):
    """A known-unsolvable instance's certificate (wait-free 2-set)."""
    mapping, cert = certified_search(wf_affine, set_consensus_task(3, 2))
    assert mapping is None and cert["kind"] == "unsolvable"
    return cert


# ---------------------------------------------------------------- round-trip
def test_positive_roundtrip(solvable_pair):
    mapping, cert = solvable_pair
    report = check(cert)
    assert report.valid and report.verdict == "solvable"
    assert report.reason == "ok"
    assert report.vertices_checked == len(mapping)
    assert report.simplices_checked > 0
    assert mapping_of(cert) == mapping


def test_negative_roundtrip(unsolvable_cert_wf):
    report = check(unsolvable_cert_wf)
    assert report.valid and report.verdict == "unsolvable"
    # The replay visits exactly the traced node count — no more, no less.
    assert report.nodes_replayed == (
        unsolvable_cert_wf["trace"]["nodes_explored"]
    )


def _thinned_task(base: Task, seed: int) -> Task:
    """A random sub-task: ``Delta`` with some output simplices dropped."""
    rng = random.Random(seed)
    table = {}
    for size in range(1, base.n + 1):
        for combo in combinations(range(base.n), size):
            participants = frozenset(combo)
            outputs = sorted(
                base.allowed_outputs(participants),
                key=lambda sigma: sorted(
                    (v.process, repr(v.value)) for v in sigma
                ),
            )
            kept = [sigma for sigma in outputs if rng.random() < 0.8]
            table[participants] = frozenset(kept or outputs)
    return Task(
        base.n,
        base.input_complex,
        base.output_complex,
        lambda participants: table[frozenset(participants)],
        name=f"{base.name}-thinned-{seed}",
    )


def test_fuzz_random_tasks_roundtrip(wf_affine):
    """Seeded random sub-tasks: every verdict's certificate validates."""
    base = set_consensus_task(3, 3)
    verdicts = set()
    for seed in range(6):
        task = _thinned_task(base, seed)
        mapping, cert = certified_search(wf_affine, task)
        report = check(cert)
        assert report.valid, (seed, report.reason, report.detail)
        expected = "solvable" if mapping is not None else "unsolvable"
        assert report.verdict == expected, (seed, report.verdict)
        verdicts.add(expected)
    # The seeds are chosen to exercise both branches of the format.
    assert verdicts == {"solvable", "unsolvable"}


# ---------------------------------------------------------------- forgeries
def test_mutation_recolored_vertex_rejected(solvable_pair):
    _, cert = solvable_pair
    mutated = copy.deepcopy(cert)
    vertex_enc, out_enc = mutated["map"][0]
    mutated["map"][0] = [
        vertex_enc,
        ["outv", (out_enc[1] + 1) % 3, out_enc[2]],
    ]
    report = check(mutated)
    assert not report.valid and report.reason == "chromatic_violation"


def test_mutation_swapped_image_rejected(solvable_pair):
    _, cert = solvable_pair
    mutated = copy.deepcopy(cert)
    by_color: dict = {}
    for index, (_, out_enc) in enumerate(mutated["map"]):
        by_color.setdefault(out_enc[1], []).append(index)
    swap = next(
        (a, b)
        for indices in by_color.values()
        for a in indices
        for b in indices
        if mutated["map"][a][1] != mutated["map"][b][1]
    )
    a, b = swap
    (va, oa), (vb, ob) = mutated["map"][a], mutated["map"][b]
    mutated["map"][a], mutated["map"][b] = [va, ob], [vb, oa]
    report = check(mutated)
    # The per-simplex image entries no longer match the mutated map.
    assert not report.valid and report.reason == "image_mismatch"


def test_mutation_widened_carrier_rejected(solvable_pair):
    _, cert = solvable_pair
    mutated = copy.deepcopy(cert)
    entry = next(e for e in mutated["simplices"] if len(e["carrier"]) < 3)
    entry["carrier"] = [0, 1, 2]
    report = check(mutated)
    assert not report.valid and report.reason == "carrier_mismatch"


def test_mutation_tampered_statement_rejected(solvable_pair):
    _, cert = solvable_pair
    mutated = copy.deepcopy(cert)
    mutated["statement"]["delta"] = mutated["statement"]["delta"][:-1]
    report = check(mutated)
    assert not report.valid and report.reason == "statement_digest_mismatch"


def test_mutation_truncated_trace_rejected(unsolvable_cert_wf):
    mutated = copy.deepcopy(unsolvable_cert_wf)
    mutated["trace"]["nodes_explored"] += 1
    report = check(mutated)
    assert not report.valid and report.reason == "trace_mismatch"

    truncated = copy.deepcopy(unsolvable_cert_wf)
    truncated["domains"][0] = truncated["domains"][0][:-1]
    report = check(truncated)
    assert not report.valid and report.reason == "domain_mismatch"


# ------------------------------------------ one tamper per rejection code
def _drop_middle_entry(cert):
    cert["simplices"].pop(len(cert["simplices"]) // 2)


def _add_entry_outside_closure(cert):
    # A facet's vertices plus one more span no simplex of the complex.
    facet = cert["statement"]["facets"][0][1]
    stranger = next(vertex for vertex, _ in cert["map"] if vertex not in facet)
    cert["simplices"].append(
        {"simplex": facet + [stranger], "carrier": [0, 1, 2], "image": []}
    )


def _drop_map_pair(cert):
    cert["map"].pop()


def _remap_outside_carrier(cert):
    """Map one vertex to a value no participant of its carrier proposed,
    with every entry's image rewritten to the new map: only ``Delta``
    can tell."""
    canon = checker_module._canon_text
    entry = next(
        e for e in cert["simplices"] if len(e["simplex"]) == 1 and len(e["carrier"]) < 3
    )
    vertex = entry["simplex"][0]
    value = min(set(range(3)) - set(entry["carrier"]))
    for pair in cert["map"]:
        if pair[0] == vertex:
            pair[1] = ["outv", pair[1][1], value]
    image_of = {canon(v): canon(out) for v, out in cert["map"]}
    for each in cert["simplices"]:
        each["image"] = sorted({image_of[canon(v)] for v in each["simplex"]})


def _drop_last_ordered_vertex(cert):
    cert["order"].pop()
    cert["domains"].pop()


def _repeat_first_ordered_vertex(cert):
    cert["order"][-1] = cert["order"][0]


def _add_stray_partial_vertex(cert):
    cert["partial"].append([["chrv", 0, ["fset", [0]]], ["outv", 0, 0]])


def _recolor_partial_image(cert):
    vertex, out = cert["partial"][0]
    cert["partial"][0] = [vertex, ["outv", (out[1] + 1) % 3, out[2]]]


def _partial_image_outside_domain(cert):
    vertex, out = cert["partial"][0]
    cert["partial"][0] = [vertex, ["outv", out[1], 7]]


#: name -> (base certificate fixture, mutation, expected rejection code).
TAMPERS = {
    "dropped_entry": ("solvable", _drop_middle_entry, "not_closed"),
    "entry_outside_closure": ("solvable", _add_entry_outside_closure, "not_closed"),
    "dropped_map_pair": ("solvable", _drop_map_pair, "missing_map_entry"),
    "image_outside_delta": ("solvable", _remap_outside_carrier, "image_not_allowed"),
    "order_missing_vertex": (
        "unsolvable", _drop_last_ordered_vertex, "order_not_permutation"
    ),
    "order_repeats_vertex": (
        "unsolvable", _repeat_first_ordered_vertex, "order_not_permutation"
    ),
    "map_found_by_replay": ("found_map", None, "map_exists"),
    "stray_partial_vertex": ("budget", _add_stray_partial_vertex, "inconsistent_partial"),
    "recolored_partial": ("budget", _recolor_partial_image, "inconsistent_partial"),
    "out_of_domain_partial": (
        "budget", _partial_image_outside_domain, "inconsistent_partial"
    ),
}


def _legacy_budget_stub(affine, task, prefix=5):
    """A budget stub in its legacy form, which also carried ``partial``:
    a fresh stub plus the first ``prefix`` vertices, in search order, of
    the map ``MapSearch`` finds (a consistent prefix), listed in
    ``vertex_key`` order as legacy stubs listed them."""
    from repro.topology.simplex import vertex_key

    search = MapSearch(affine, task)
    mapping = search.search()
    assert mapping is not None
    _, stub = certified_search(affine, task, budget=20)
    assert stub["kind"] == "budget" and "partial" not in stub
    encode = serialize_module._encode
    stub["partial"] = [
        [encode(vertex), encode(mapping[vertex])]
        for vertex in sorted(search.vertices[:prefix], key=vertex_key)
    ]
    return stub


@pytest.fixture(scope="module")
def tamper_bases(solvable_pair, unsolvable_cert_wf, ra_1res):
    task = set_consensus_task(3, 2)
    # An "unsolvable" certificate written for a search that found a map.
    search = MapSearch(ra_1res, task)
    assert search.search() is not None
    return {
        "solvable": solvable_pair[1],
        "unsolvable": unsolvable_cert_wf,
        "found_map": unsolvable_cert(ra_1res, task, search),
        "budget": _legacy_budget_stub(ra_1res, task),
    }


def _tampered(bases, name):
    base, mutate, _ = TAMPERS[name]
    cert = copy.deepcopy(bases[base])
    if mutate is not None:
        mutate(cert)
    return cert


@pytest.mark.parametrize("name", sorted(TAMPERS))
def test_tampered_certificate_rejected_with_its_code(tamper_bases, name):
    report = check(_tampered(tamper_bases, name))
    assert not report.valid and report.verdict == "invalid"
    assert report.reason == TAMPERS[name][2], report.detail


def _reports_three_ways(cert):
    """``check`` on the in-memory document, on the same document parsed
    back from its bytes, and on the bytes: one report, three times."""
    data = cert_to_bytes(cert)
    report = check(cert).to_dict()
    assert check(json.loads(data)).to_dict() == report
    assert check_bytes(data).to_dict() == report
    return report


@pytest.mark.parametrize("name", sorted(TAMPERS))
def test_tampered_reports_agree_in_memory_and_parsed(tamper_bases, name):
    report = _reports_three_ways(_tampered(tamper_bases, name))
    assert report["reason"] == TAMPERS[name][2]


#: SHA-256 of the 129 E11 reports (``to_dict``, in table order, as
#: sorted-key JSON): the reports must not move.  The one budget row
#: carries no partial assignment, so it checks 0 vertices and simplices.
E11_REPORTS_SHA256 = "21ce9db0b02f34bf6a75c375386049eb0296c7fbb0d7f739cc74a8564f56547e"


def test_e11_reports_agree_in_memory_and_parsed_and_are_pinned():
    tasks = {k: set_consensus_task(3, k) for k in (1, 2, 3)}
    reports = []
    for adversary in all_adversaries(3):
        if not is_fair(adversary):
            continue
        affine = r_affine(agreement_function_of(adversary))
        for k in (1, 2, 3):
            _, cert = certified_search(affine, tasks[k], 20000)
            reports.append(_reports_three_ways(cert))
    assert len(reports) == 129
    assert {r["kind"] for r in reports} == {"solvable", "unsolvable", "budget"}
    assert all(r["valid"] for r in reports)
    text = json.dumps(reports, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(text).hexdigest() == E11_REPORTS_SHA256


# ------------------------------------ hand-built vertices and their carriers
def _chrv(color, members):
    return ["chrv", color, ["fset", members]]


def _true_and_one_facets():
    """One vertex written with carrier ``[true,1]`` (read as ``{true}``)
    and once with ``[1,true]`` (read as ``{1}``).  The two share a
    canonical text, so each must be read by its own exact text.  The
    last facet's entry, checked first, holds the ``{1}`` one; the
    vertex object shared by two facets is how a document built in
    memory looks."""
    shared = _chrv(2, [2])
    return [
        [_chrv(1, [1]), shared],
        [shared, _chrv(0, [True, 1])],
        [_chrv(0, [1, True]), _chrv(1, [0])],
    ]


#: name -> (facets, (reason, detail) of the solvable and the budget check).
HAND_BUILT = {
    "mixed_depth": (
        [[_chrv(0, [_chrv(0, [0])]), _chrv(1, [0, 1])]],
        ("bad_format", "carrier does not lower to process ids"),
        ("bad_format", "carrier does not lower to process ids"),
    ),
    "mixed_depth_in_carrier": (
        [[_chrv(0, [_chrv(0, [0]), 1]), _chrv(1, [0, 1])]],
        ("bad_format", "carrier does not lower to process ids"),
        ("bad_format", "carrier does not lower to process ids"),
    ),
    "empty_carrier": (
        [[_chrv(0, []), _chrv(1, [1])]],
        ("carrier_mismatch", "claimed carrier [] != recomputed [1]"),
        ("inconsistent_partial", "partial assignment uses an out-of-domain candidate"),
    ),
    "empty_carrier_below": (
        [[_chrv(0, [_chrv(0, [])]), _chrv(1, [_chrv(1, [1])])]],
        ("carrier_mismatch", "claimed carrier [] != recomputed [1]"),
        ("inconsistent_partial", "partial assignment uses an out-of-domain candidate"),
    ),
    "empty_carrier_alone": (
        [[_chrv(0, [])]],
        ("image_not_allowed", "image not in Delta([])"),
        ("inconsistent_partial", "partial assignment uses an out-of-domain candidate"),
    ),
    # No other member equals ``true``: the direct fold's set would keep
    # whichever of ``true`` and ``1`` it met first.
    "true_member": (
        [[_chrv(0, [True]), _chrv(2, [0, 2])]],
        ("bad_format", "carrier does not lower to process ids"),
        ("bad_format", "carrier does not lower to process ids"),
    ),
    # ``true`` in one vertex's carrier, ``1`` in the other's: the union
    # used to keep whichever it met first, by ``PYTHONHASHSEED``.
    "true_beside_one": (
        [[_chrv(0, [True]), _chrv(1, [1])]],
        ("bad_format", "carrier does not lower to process ids"),
        ("bad_format", "carrier does not lower to process ids"),
    ),
    "non_set_carrier": (
        [[["chrv", 0, 5], _chrv(1, [1])]],
        ("bad_format", "carrier of ('chrv', 0, 5) is not a set"),
        ("bad_format", "carrier of ('chrv', 0, 5) is not a set"),
    ),
    "true_and_one_members": (
        _true_and_one_facets(),
        ("carrier_mismatch", "claimed carrier [] != recomputed [0, 1]"),
        ("inconsistent_partial", "partial assignment uses an out-of-domain candidate"),
    ),
}


def _over_facets(cert, facets):
    """``cert`` restated over hand-written facets, its affine digest
    recomputed so that only the vertices themselves can be at fault:
    each vertex maps to value 0, each facet has one entry claiming an
    empty carrier and the map's image, the last facet's entry first."""
    canon = checker_module._canon_text
    join = checker_module._join
    cert = copy.deepcopy(cert)
    statement = cert["statement"]
    statement["facets"] = [["fset", facet] for facet in facets]
    facet_texts = sorted(checker_module._canonical(f) for f in statement["facets"])
    statement["affine_digest"] = checker_module._digest(
        join(
            (
                '"affine"',
                str(statement["n"]),
                str(statement["depth"]),
                canon(statement["affine_name"]),
                join(('"ccx"', join(facet_texts))),
            )
        )
    )
    vertices = []
    for facet in facets:
        vertices.extend(v for v in facet if v not in vertices)
    pairs = [[vertex, ["outv", vertex[1], 0]] for vertex in vertices]
    if cert["kind"] == "budget":
        cert["partial"] = pairs
    else:
        cert["map"] = pairs
        cert["simplices"] = [
            {
                "simplex": facet,
                "carrier": [],
                "image": sorted({canon(["outv", v[1], 0]) for v in facet}),
            }
            for facet in reversed(facets)
        ]
    return cert


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_vertices_keep_their_rejection(tamper_bases, name):
    facets, solvable, budget = HAND_BUILT[name]
    for base, expected in (("solvable", solvable), ("budget", budget)):
        report = _reports_three_ways(_over_facets(tamper_bases[base], facets))
        assert (report["reason"], report["detail"]) == expected


def _lowering(carrier_of, simplex):
    """A carrier lowering's outcome: the ids, or the rejection."""
    try:
        return carrier_of(simplex)
    except checker_module._Reject as rejection:
        return (rejection.reason, rejection.detail)


def _frozen_closure(facets_enc):
    read = checker_module._Reader().read
    facets = [checker_module._freeze_set(facet, read)[1] for facet in facets_enc]
    return checker_module._closure(facets)


def test_per_vertex_carrier_folds_match_the_direct_fold(chr2, monkeypatch):
    """On every closure simplex of ``Chr²`` at n=3, the union of the
    vertices' folds is the direct level-by-level lowering, and no
    simplex needs the direct fold."""
    closure = _frozen_closure([serialize_module.encode(facet) for facet in chr2.facets])
    assert len(closure) == len(chr2.simplices)
    direct = {simplex: checker_module._carrier_in_s(simplex) for simplex in closure}

    def no_fallback(simplex):
        raise AssertionError(f"direct fold taken for {simplex!r}")

    monkeypatch.setattr(checker_module, "_carrier_in_s", no_fallback)
    carrier_of = checker_module._carrier_folds()
    assert {simplex: carrier_of(simplex) for simplex in closure} == direct


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_vertices_lower_as_by_the_direct_fold(name):
    """Mixed depths, empty carriers, ``true`` members and non-set
    carriers fall back to the direct fold: same ids, same rejection."""
    facets = [["fset", facet] for facet in HAND_BUILT[name][0]]
    carrier_of = checker_module._carrier_folds()
    for simplex in _frozen_closure(facets):
        assert _lowering(carrier_of, simplex) == _lowering(
            checker_module._carrier_in_s, simplex
        )


def test_true_beside_one_is_rejected_under_every_hash_seed(tamper_bases):
    """``true_beside_one`` gets its one report in fresh interpreters
    under several hash seeds, not only under this one."""
    facets, solvable, _ = HAND_BUILT["true_beside_one"]
    cert = _over_facets(tamper_bases["solvable"], facets)
    script = (
        "import json, sys\n"
        "from repro.certify.checker import check_bytes\n"
        "report = check_bytes(sys.stdin.buffer.read())\n"
        "print(json.dumps([report.reason, report.detail]))\n"
    )
    src = str(Path(checker_module.__file__).resolve().parents[2])
    seen = set()
    for seed in ("0", "1", "2", "3", "4", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script],
            input=cert_to_bytes(cert),
            capture_output=True,
            env=env,
            check=True,
            timeout=60,
        )
        seen.add(done.stdout.decode().strip())
    assert seen == {json.dumps(list(solvable))}


# ------------------------------------------- the checker's interned reads
def _late_entry(cert, size):
    """An entry near the end: its vertices were read (interned) long before."""
    return next(e for e in reversed(cert["simplices"]) if len(e["simplex"]) == size)


def test_permuted_carrier_misses_the_intern_key_and_is_accepted(solvable_pair):
    """An equal vertex written with permuted carrier members is the same vertex."""
    _, cert = solvable_pair
    baseline = check(cert).to_dict()
    mutated = copy.deepcopy(cert)
    entry = _late_entry(mutated, 3)
    vertex = entry["simplex"][0]
    members = vertex[2][1]
    assert len(members) > 1
    permuted = ["chrv", vertex[1], ["fset", list(reversed(members))]]
    assert checker_module._canon_text(permuted) != checker_module._canon_text(vertex)
    entry["simplex"][0] = permuted
    assert check(mutated).to_dict() == baseline


def test_duplicate_map_pair_last_one_wins(solvable_pair):
    _, cert = solvable_pair
    baseline = check(cert).to_dict()
    vertex_enc, other = next(
        (vertex, out)
        for vertex, image in cert["map"]
        for _, out in cert["map"]
        if out[1] == image[1] and out != image
    )

    repeated = copy.deepcopy(cert)
    repeated["map"].append(copy.deepcopy(cert["map"][0]))
    assert check(repeated).to_dict() == baseline

    overridden = copy.deepcopy(cert)
    overridden["map"].insert(0, [copy.deepcopy(vertex_enc), copy.deepcopy(other)])
    assert check(overridden).to_dict() == baseline

    rebound = copy.deepcopy(cert)
    rebound["map"].append([copy.deepcopy(vertex_enc), copy.deepcopy(other)])
    report = check(rebound)
    assert not report.valid and report.reason == "image_mismatch"


def test_tampered_image_of_interned_vertices_rejected(solvable_pair):
    _, cert = solvable_pair
    mutated = copy.deepcopy(cert)
    entry = _late_entry(mutated, 2)
    texts = {checker_module._canon_text(out) for _, out in mutated["map"]}
    entry["image"] = sorted(texts - set(entry["image"]))[:1] + entry["image"][1:]
    report = check(mutated)
    assert not report.valid and report.reason == "image_mismatch"


def test_tampered_carrier_of_interned_vertices_rejected(solvable_pair):
    _, cert = solvable_pair
    mutated = copy.deepcopy(cert)
    entry = _late_entry(mutated, 2)
    entry["carrier"] = entry["carrier"][:-1] or [0, 1, 2]
    report = check(mutated)
    assert not report.valid and report.reason == "carrier_mismatch"


def test_non_canonical_facet_is_still_bound_by_digest(solvable_pair):
    """Facets are canonicalised before hashing, so order is not content."""
    _, cert = solvable_pair
    baseline = check(cert).to_dict()
    reordered = copy.deepcopy(cert)
    facets = reordered["statement"]["facets"]
    facets.reverse()
    for facet in facets:
        facet[1].reverse()
        for vertex in facet[1]:
            vertex[2][1].reverse()
    assert check(reordered).to_dict() == baseline

    # ...but a changed facet, however it is ordered, breaks the binding.
    facets[0][1].pop()
    report = check(reordered)
    assert not report.valid and report.reason == "statement_digest_mismatch"


def test_format_and_version_gates(solvable_pair):
    _, cert = solvable_pair
    other = dict(cert, version=99)
    assert check(other).reason == "unsupported_version"
    assert check(dict(cert, format="else")).reason == "bad_format"
    assert check(["not", "an", "object"]).reason == "bad_format"
    assert check(dict(cert, kind="mystery")).reason == "unknown_kind"
    assert not check_bytes(b"{ not json").valid


# ------------------------------------------------------- verdict consistency
def test_unsolvable_agrees_with_sperner(unsolvable_cert_wf, chr1):
    """The FACT refutation and the Sperner obstruction must agree.

    Wait-free 2-set consensus over ``Chr s`` is the instance where the
    counting argument applies: an admissible labeling with zero
    panchromatic facets would contradict the parity, and a carried map
    would be exactly such a labeling.  If this assertion ever fires the
    two independent proofs of the same fact diverged — that is a bug in
    one of them, not in this test.
    """
    report = check(unsolvable_cert_wf)
    sperner_holds = fuzz_sperner(chr1, trials=50, seed=3)
    assert report.valid and report.verdict == "unsolvable" and sperner_holds, (
        "DIVERGENCE between independent obstructions: certificate replay "
        f"says {report.verdict!r} (valid={report.valid}) but the Sperner "
        f"parity fuzz says {'holds' if sperner_holds else 'FAILS'}"
    )


# ---------------------------------------------------------------- budget
def test_fresh_budget_stub_has_no_partial_and_is_undecided(ra_1res):
    mapping, stub = certified_search(
        ra_1res, set_consensus_task(3, 2), budget=20
    )
    assert mapping is None and stub["kind"] == "budget"
    assert "partial" not in stub
    assert stub["trace"] == {"nodes_explored": 21, "node_budget": 20}
    report = check(stub)
    assert report.valid and report.verdict == "undecided"
    assert report.vertices_checked == report.simplices_checked == 0


def test_legacy_budget_stub_partial_is_still_checked(tamper_bases):
    stub = tamper_bases["budget"]
    assert len(stub["partial"]) == 5
    report = check(stub)
    assert report.valid and report.verdict == "undecided"
    assert report.vertices_checked == len(stub["partial"])
    assert report.simplices_checked > 0
    # Its tampers reject with ``inconsistent_partial`` (TAMPERS, above).


def test_unsolvable_cert_refuses_restricted_domains(wf_affine):
    task = set_consensus_task(3, 2)
    search = MapSearch(wf_affine, task)
    vertex = search.vertices[0]
    restricted = MapSearch(
        wf_affine, task, domain_overrides={vertex: frozenset()}
    )
    assert restricted.search() is None
    with pytest.raises(ValueError):
        unsolvable_cert(wf_affine, task, restricted)


# ---------------------------------------------------------------- determinism
def test_certificates_are_byte_deterministic(ra_1res, wf_affine):
    for affine, k in ((ra_1res, 2), (wf_affine, 2)):
        task = set_consensus_task(3, k)
        _, first = certified_search(affine, task)
        _, second = certified_search(affine, task)
        assert cert_to_bytes(first) == cert_to_bytes(second)


def test_cert_file_roundtrip(tmp_path, solvable_pair):
    _, cert = solvable_pair
    path = tmp_path / "cert.json"
    write_cert(path, cert)
    assert read_cert(path) == cert
    assert check_bytes(path.read_bytes()).valid


# ---------------------------------------------------------------- trusted base
def test_checker_is_stdlib_only():
    """The checker must not import the library it is checking."""
    source = Path(checker_module.__file__).read_text()
    allowed = {"__future__", "hashlib", "itertools", "json", "dataclasses", "typing"}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name in allowed, alias.name
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in the trusted base"
            assert node.module in allowed, node.module


def _recanon(encoded):
    """Reference canonicalisation: sort set members by their full text."""
    if isinstance(encoded, list) and encoded:
        tag = encoded[0]
        if not isinstance(tag, str):
            return [_recanon(member) for member in encoded]
        if tag == "fset" and len(encoded) == 2:
            members = [_recanon(member) for member in encoded[1]]
            return ["fset", sorted(members, key=checker_module._canon_text)]
        if tag in ("tuple", "list") and len(encoded) == 2:
            return [tag, [_recanon(member) for member in encoded[1]]]
        if tag in ("chrv", "outv") and len(encoded) == 3:
            return [tag, _recanon(encoded[1]), _recanon(encoded[2])]
        raise ValueError(f"unknown encoding tag {tag!r}")
    return encoded


def _shuffled(encoded, rng):
    """The same value encoded with every set's members permuted."""
    if isinstance(encoded, list):
        members = [_shuffled(member, rng) for member in encoded]
        if len(members) == 2 and members[0] == "fset":
            rng.shuffle(members[1])
        return members
    return encoded


# Process ids past 9 make text order differ from numeric order.
_ids = st.integers(min_value=0, max_value=12)
_chr1 = st.builds(ChrVertex, _ids, st.frozensets(_ids, min_size=1, max_size=4))
_chr2 = st.builds(ChrVertex, _ids, st.frozensets(_chr1, min_size=1, max_size=3))
_outv = st.builds(OutputVertex, _ids, st.one_of(_ids, st.text(max_size=3)))
_vertex = st.one_of(_chr1, _chr2, _outv)
_value = st.one_of(
    _vertex,
    st.frozensets(_vertex, max_size=4),
    st.frozensets(st.frozensets(_outv, max_size=3), max_size=3),
    st.tuples(st.frozensets(_ids, max_size=3), st.frozensets(_chr2, max_size=2)),
)


@settings(max_examples=150, deadline=None)
@given(value=_value, rng=st.randoms(use_true_random=False))
def test_bottom_up_canonical_text_matches_reference(value, rng):
    encoded = serialize_module.encode(value)
    shuffled = _shuffled(encoded, rng)
    text = checker_module._canonical(shuffled)
    assert text == checker_module._canon_text(_recanon(shuffled))
    assert text == checker_module._canonical(encoded)
    assert text == serialize_module.serialize(value)
    frozen = checker_module._freeze(shuffled)
    assert checker_module._frozen_text(frozen) == text


def test_checker_constants_match_engine():
    """The literal constants in the trusted base stay in sync."""
    from repro.certify import witness

    assert checker_module.DIGEST_SALT == serialize_module._DIGEST_SALT
    assert checker_module.CERT_FORMAT == witness.CERT_FORMAT == CERT_FORMAT
    assert witness.CERT_VERSION == CERT_VERSION
    assert CERT_VERSION in checker_module.SUPPORTED_VERSIONS


# ---------------------------------------------------------------- engine
def test_engine_certify_and_check_jobs(tmp_path, ra_1res):
    task = set_consensus_task(3, 2)
    engine = Engine(cache=ArtifactCache(tmp_path))
    cert = engine.certify(ra_1res, task)
    assert cert["kind"] == "solvable"
    (checked,) = engine.run_jobs([JobSpec("check", (cert,))])
    report = checked.value
    assert report["valid"] and report["verdict"] == "solvable"

    warm = Engine(cache=ArtifactCache(tmp_path))
    again = warm.certify(ra_1res, task)
    assert again == cert
    assert warm.stats()["hits"] >= 1


def test_engine_certify_budget_returns_stub(ra_1res):
    """Budget overruns are stub values, never split-retried errors."""
    engine = Engine(split_retries=3)
    stub = engine.certify(ra_1res, set_consensus_task(3, 2), 20)
    assert stub["kind"] == "budget"
    assert stub["trace"]["node_budget"] == 20


def test_engine_parallel_certify(ra_1res, wf_affine):
    certs = Engine(jobs=2).certify_many(
        [
            (ra_1res, set_consensus_task(3, 2), None),
            (wf_affine, set_consensus_task(3, 2), None),
        ]
    )
    assert [cert["kind"] for cert in certs] == ["solvable", "unsolvable"]


def test_engine_solve_budget_still_raises(wf_affine):
    """The solve path's split-retry semantics are unchanged."""
    engine = Engine(split_retries=0)
    with pytest.raises(SearchBudgetExceeded):
        engine.solve_many([(wf_affine, set_consensus_task(3, 2), 5)])


# ---------------------------------------------------------------- service
def test_service_certify_and_check(ra_1res):
    from repro.service import BackgroundServer, ServiceClient

    task = set_consensus_task(3, 2)
    with BackgroundServer(Engine()) as background:
        with ServiceClient(port=background.server.port) as client:
            cert = client.certify(ra_1res, task)
            assert cert["kind"] == "solvable"
            report = client.check(cert)
            assert report["valid"] and report["verdict"] == "solvable"
            stub = client.certify(ra_1res, task, 20)
            assert stub["kind"] == "budget"
    # The wire cert validates locally too — the format is portable.
    assert check(cert).valid


# ---------------------------------------------------------------- CLI
LIVE_SETS_1RES = "[[0,1],[0,2],[1,2],[0,1,2]]"


def test_cli_certify_check_roundtrip(tmp_path, capsys):
    path = tmp_path / "cert.json"
    assert (
        main(
            [
                "certify",
                LIVE_SETS_1RES,
                "--k",
                "2",
                "--output",
                str(path),
            ]
        )
        == 0
    )
    assert "kind=solvable" in capsys.readouterr().out
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "verdict=solvable" in out

    assert main(["check", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] and report["path"] == str(path)

    # A tampered file must flip the exit code.
    cert = read_cert(path)
    cert["statement"]["delta"] = cert["statement"]["delta"][:-1]
    write_cert(path, cert)
    assert main(["check", str(path)]) == 1
    assert "statement_digest_mismatch" in capsys.readouterr().out


def test_cli_certify_budget_exit_code(tmp_path, capsys):
    path = tmp_path / "stub.json"
    code = main(
        [
            "certify",
            LIVE_SETS_1RES,
            "--k",
            "2",
            "--budget",
            "10",
            "--output",
            str(path),
        ]
    )
    assert code == 2
    assert read_cert(path)["kind"] == "budget"
    capsys.readouterr()


def test_cli_certify_stdout(capsys):
    assert main(["certify", "--wait-free", "--k", "3"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["kind"] == "solvable"
    assert check(cert).valid


# ----------------------------------------------------------------------
# Positive certificates are a read-out of the shared search structure
# ----------------------------------------------------------------------
def _sorted_solvable_cert(affine, task, mapping, nodes_explored):
    """The positive certificate as built before the read-out: sort the
    vertices and simplices again and lower every carrier afresh."""
    from repro.certify.witness import _header
    from repro.topology.simplex import vertex_key
    from repro.topology.subdivision import carrier_in_s

    encode, canon = serialize_module._encode, serialize_module._canon_text
    cert = _header("solvable", affine, task)
    vertices = sorted(mapping, key=vertex_key)
    rank = {vertex: index for index, vertex in enumerate(vertices)}
    cert["map"] = [[encode(v), encode(mapping[v])] for v in vertices]
    entries = []
    for sigma in sorted(
        affine.complex.simplices,
        key=lambda s: (len(s), sorted(map(rank.__getitem__, s))),
    ):
        entries.append(
            {
                "simplex": sorted([encode(v) for v in sigma], key=canon),
                "carrier": sorted(carrier_in_s(sigma)),
                "image": sorted({canon(encode(mapping[v])) for v in sigma}),
            }
        )
    cert["simplices"] = entries
    cert["search"] = {"nodes_explored": nodes_explored}
    return cert


def test_solvable_cert_matches_the_sorted_construction(ra_1of, ra_1res, ra_fig5b):
    checked = 0
    for affine in (ra_1of, ra_1res, ra_fig5b):
        for k in (1, 2, 3):
            task = set_consensus_task(3, k)
            mapping, cert = certified_search(affine, task)
            if mapping is None:
                continue
            reference = _sorted_solvable_cert(
                affine, task, mapping, cert["search"]["nodes_explored"]
            )
            assert cert_to_bytes(cert) == cert_to_bytes(reference)
            checked += 1
    assert checked >= 6

"""repro.obs — the tracer, the exporters, and the instrumented layers.

Three properties carry the subsystem:

* **Off means free.**  With no active tracer, ``obs.span()`` returns one
  shared no-op singleton — no allocation, no contextvar write — so the
  tier-1 suite and the committed benchmark numbers are untouched.
* **Context is explicit.**  Nesting follows the contextvar; process
  boundaries are crossed only via carrier dicts, and pool-worker spans
  reattach under the submitting batch's span with their own pid.
* **Serialization is byte-stable.**  The same finished span always
  yields the same JSONL line, so traces diff cleanly in CI artifacts.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.adversaries import k_concurrency_alpha, t_resilience_alpha
from repro.core import full_affine_task, r_affine
from repro.engine import Engine
from repro.service.metrics import (
    BUCKET_BOUNDS,
    LatencyHistogram,
    Metrics,
    format_histogram,
)
from repro.solver import SolveRequest, run_request
from repro.tasks.set_consensus import set_consensus_task


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing disabled.

    The tracer is a module global: a test that enables it and fails
    mid-way must not leak an active tracer into its neighbours.
    """
    obs.disable()
    yield
    obs.disable()


# ----------------------------------------------------------------------
# The disabled fast path
# ----------------------------------------------------------------------
def test_disabled_span_is_the_shared_noop_singleton():
    assert obs.get_tracer() is None
    first = obs.span("anything", attr=1)
    second = obs.span("else")
    assert first is second is obs.NOOP_SPAN
    assert first.recording is False
    # The full protocol is inert: attrs vanish, nesting records nothing.
    with obs.span("outer") as outer:
        outer.set_attr("ignored", 42)
        with obs.span("inner"):
            pass
    assert obs.current_carrier() is None


def test_disabled_tracer_buffers_no_spans():
    tracer = obs.Tracer()
    # Not installed: span() must not route to it.
    with obs.span("never"):
        pass
    assert tracer.stats()["spans_total"] == 0


# ----------------------------------------------------------------------
# Enabled: identity, nesting, attributes, errors
# ----------------------------------------------------------------------
def test_nesting_parents_and_trace_ids():
    tracer = obs.enable()
    with obs.span("root", layer="test") as root:
        assert root.recording is True
        with obs.span("child") as child:
            with obs.span("grandchild") as grandchild:
                pass
    spans = {s.name: s for s in tracer.drain()}
    root_s, child_s, grand_s = (
        spans["root"], spans["child"], spans["grandchild"],
    )
    assert root_s.parent_id is None
    assert root_s.trace_id == f"t{root_s.span_id}"
    assert child_s.parent_id == root_s.span_id
    assert grand_s.parent_id == child_s.span_id
    assert root_s.trace_id == child_s.trace_id == grand_s.trace_id
    # Children finish first, so durations nest monotonically.
    assert root_s.dur_s >= child_s.dur_s >= grand_s.dur_s >= 0.0
    assert root_s.attrs == {"layer": "test"}
    assert root_s.pid == os.getpid()


def test_sibling_spans_share_the_parent_not_each_other():
    tracer = obs.enable()
    with obs.span("parent") as parent:
        with obs.span("first"):
            pass
        with obs.span("second"):
            pass
    spans = {s.name: s for s in tracer.drain()}
    assert spans["first"].parent_id == parent.span_id
    assert spans["second"].parent_id == parent.span_id


def test_exception_records_error_attr_and_reraises():
    tracer = obs.enable()
    with pytest.raises(ValueError):
        with obs.span("doomed"):
            raise ValueError("boom")
    (span_obj,) = tracer.drain()
    assert span_obj.attrs["error"] == "ValueError"


def test_attrs_are_coerced_to_json_scalars():
    tracer = obs.enable()
    with obs.span("typed", flag=True, count=3, rate=0.5, label="x") as s:
        s.set_attr("missing", None)
        s.set_attr("exotic", {1, 2})  # non-scalar -> repr
    (span_obj,) = tracer.drain()
    assert span_obj.attrs["flag"] is True
    assert span_obj.attrs["count"] == 3
    assert span_obj.attrs["exotic"] == repr({1, 2})
    json.dumps(span_obj.to_dict())  # everything JSON-safe by construction


def test_max_spans_caps_buffer_but_not_aggregates():
    tracer = obs.enable(obs.Tracer(max_spans=3))
    for index in range(5):
        with obs.span("tick", i=index):
            pass
    stats = tracer.stats()
    assert stats["spans_total"] == 5
    assert stats["spans_buffered"] == 3
    assert stats["spans_dropped"] == 2
    assert stats["by_name"]["tick"]["count"] == 5
    assert len(tracer.drain()) == 3


def test_drain_empties_buffer_but_keeps_stats():
    tracer = obs.enable()
    with obs.span("once"):
        pass
    assert len(tracer.drain()) == 1
    assert tracer.drain() == []
    assert tracer.stats()["spans_total"] == 1


# ----------------------------------------------------------------------
# Serialization: byte-stable lines, dict round trip
# ----------------------------------------------------------------------
def test_span_serialization_is_byte_stable():
    tracer = obs.enable()
    with obs.span("stable", zebra=1, alpha=2):
        pass
    (span_obj,) = tracer.drain()
    line = obs.span_line(span_obj)
    assert line == obs.span_line(span_obj)  # same span, same bytes
    assert line == obs.span_line(span_obj.to_dict())
    # Canonical form: sorted keys, no whitespace.
    assert line == json.dumps(
        json.loads(line), sort_keys=True, separators=(",", ":")
    )
    assert '"alpha":2' in line and line.index('"alpha"') < line.index('"zebra"')


def test_from_dict_round_trip():
    tracer = obs.enable()
    with obs.span("original", nodes=7):
        pass
    (span_obj,) = tracer.drain()
    rebuilt = obs.Span.from_dict(span_obj.to_dict())
    assert rebuilt.to_dict() == span_obj.to_dict()
    assert obs.span_line(rebuilt) == obs.span_line(span_obj)


def test_export_and_load_round_trip(tmp_path):
    tracer = obs.enable()
    for index in range(3):
        with obs.span("io", i=index):
            pass
    spans = tracer.drain()
    path = str(tmp_path / "trace.jsonl")
    assert obs.export_jsonl(path, spans) == 3
    loaded = obs.load_spans(path)
    assert [s["name"] for s in loaded] == ["io", "io", "io"]
    assert loaded == [s.to_dict() for s in spans]
    # Appending is additive, not truncating.
    assert obs.export_jsonl(path, spans[:1]) == 1
    assert len(obs.load_spans(path)) == 4


# ----------------------------------------------------------------------
# Carriers: explicit propagation across context boundaries
# ----------------------------------------------------------------------
def test_carrier_attach_round_trip():
    obs.enable()
    assert obs.current_carrier() is None  # enabled but no open span
    with obs.span("root") as root:
        carrier = obs.current_carrier()
        assert carrier == {
            "trace_id": root.trace_id, "span_id": root.span_id,
        }
        with obs.attach(None):
            # Deliberate detachment: the next span is a fresh root.
            assert obs.current_carrier() is None
        # Context restored after the attach block.
        assert obs.current_carrier() == carrier


def test_attach_reparents_spans_under_foreign_context():
    tracer = obs.enable()
    carrier = {"trace_id": "tdead.beef", "span_id": "dead.beef"}
    with obs.attach(carrier):
        with obs.span("adopted"):
            pass
    (span_obj,) = tracer.drain()
    assert span_obj.trace_id == "tdead.beef"
    assert span_obj.parent_id == "dead.beef"


def test_ingest_reattaches_worker_span_dicts():
    tracer = obs.enable()
    shipped = [
        {
            "name": "engine.compute",
            "trace_id": "tabc.1",
            "span_id": "abc.2",
            "parent_id": "abc.1",
            "pid": 424242,
            "start_s": 1.0,
            "dur_s": 0.25,
            "attrs": {"kind": "solve"},
        }
    ]
    assert tracer.ingest(shipped) == 1
    stats = tracer.stats()
    assert stats["spans_total"] == 1
    assert stats["by_name"]["engine.compute"]["count"] == 1
    (span_obj,) = tracer.drain()
    assert span_obj.pid == 424242
    assert span_obj.to_dict() == shipped[0]


# ----------------------------------------------------------------------
# Instrumented layers: engine, solver, pool workers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def solve_queries():
    task = set_consensus_task(3, 2)
    return [
        SolveRequest(affine=r_affine(t_resilience_alpha(3, 1)), task=task),
        SolveRequest(affine=r_affine(k_concurrency_alpha(3, 1)), task=task),
    ]


def test_sequential_engine_emits_batch_and_compute_spans(solve_queries):
    engine = Engine()
    engine.solve_many(solve_queries)  # prime setups, untraced
    tracer = obs.enable()
    results = engine.solve_many(solve_queries)
    obs.disable()
    assert all(mapping is not None for mapping, _ in results)
    spans = tracer.drain()
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    (batch,) = by_name["engine.batch"]
    (lookup,) = by_name["engine.cache.lookup"]
    assert batch.parent_id is None
    assert lookup.parent_id == batch.span_id
    assert lookup.attrs == {"hits": 0, "pending": 2}
    assert batch.attrs["specs"] == 2 and batch.attrs["computed"] == 2
    computes = by_name["engine.compute"]
    searches = by_name["solver.search"]
    assert len(computes) == len(searches) == 2
    for compute in computes:
        assert compute.parent_id == batch.span_id
        assert compute.trace_id == batch.trace_id
    compute_ids = {c.span_id for c in computes}
    for search in searches:
        assert search.parent_id in compute_ids
        assert search.attrs["solvable"] is True
        assert search.attrs["nodes"] > 0


def test_pool_worker_spans_reattach_under_submitting_batch(solve_queries):
    tracer = obs.enable()
    with obs.span("test.root") as root:
        results = Engine(jobs=2).solve_many(solve_queries)
    obs.disable()
    assert all(mapping is not None for mapping, _ in results)
    spans = tracer.drain()
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    (batch,) = by_name["engine.batch"]
    assert batch.parent_id == root.span_id
    assert batch.trace_id == root.trace_id
    # Worker-produced spans: one codec+compute triple per job, shipped
    # back as dicts and reattached into the submitting trace.
    computes = by_name["engine.compute"]
    assert len(computes) == 2
    for compute in computes:
        assert compute.trace_id == root.trace_id
        assert compute.parent_id == batch.span_id
        assert compute.pid != os.getpid()  # really ran in a worker
    assert len(by_name["engine.codec.decode"]) >= 2
    assert len(by_name["engine.codec.encode"]) >= 2
    # Worker-side solver spans came along for the ride too.
    assert {s.trace_id for s in by_name["solver.search"]} == {root.trace_id}


def test_solver_setup_span_only_when_cold(solve_queries):
    request = solve_queries[0]
    run_request(request)  # prime the per-pair setup cache
    tracer = obs.enable()
    run_request(request)
    obs.disable()
    names = [s.name for s in tracer.drain()]
    assert "solver.search" in names
    assert "solver.setup" not in names  # warm: no setup work to time


def test_solver_setup_span_says_whether_the_structure_was_built():
    affine = full_affine_task(3, 1)  # a fresh object: nothing cached
    tracer = obs.enable()
    for k in (1, 2):
        run_request(SolveRequest(affine=affine, task=set_consensus_task(3, k)))
    obs.disable()
    setups = [s for s in tracer.drain() if s.name == "solver.setup"]
    assert [s.attrs["structure"] for s in setups] == ["built", "reused"]


# ----------------------------------------------------------------------
# Metrics integration: consistent snapshots, trace read-out
# ----------------------------------------------------------------------
def test_metrics_snapshot_has_trace_section_only_when_tracing():
    metrics = Metrics()
    metrics.inc("requests_total")
    metrics.observe("request_seconds", 0.004)
    assert "trace" not in metrics.snapshot()
    assert "repro_trace_" not in metrics.render_text()

    obs.enable()
    with obs.span("service.request"):
        pass
    snap = metrics.snapshot()
    assert snap["trace"]["spans_total"] == 1
    assert snap["trace"]["by_name"]["service.request"]["count"] == 1
    text = metrics.render_text()
    assert "repro_trace_spans_total 1" in text
    assert 'repro_trace_span_count{name="service.request"} 1' in text
    # The service's own lines are untouched by the extension.
    assert "repro_service_requests_total 1" in text


def test_format_histogram_matches_locked_snapshot():
    histogram = LatencyHistogram()
    for seconds in (0.0002, 0.0002, 0.003, 0.05, 1.7):
        histogram.record(seconds)
    snap = histogram.snapshot()
    assert snap == format_histogram(*histogram.raw())
    assert snap["count"] == 5
    assert snap["max_s"] == 1.7
    assert snap["mean_s"] == pytest.approx(sum((0.0002, 0.0002, 0.003, 0.05, 1.7)) / 5, rel=1e-3)
    # Quantiles clamp to bucket bounds and never exceed the real max.
    assert snap["p50_s"] <= snap["p99_s"] <= snap["max_s"]
    assert any(snap["p50_s"] == pytest.approx(min(bound, 1.7)) for bound in BUCKET_BOUNDS)


def test_format_histogram_empty():
    assert format_histogram([0] * (len(BUCKET_BOUNDS) + 1), 0, 0.0, 0.0) == {
        "count": 0, "mean_s": 0.0, "p50_s": 0.0, "p99_s": 0.0, "max_s": 0.0,
    }


# ----------------------------------------------------------------------
# Summaries and the Prometheus read-out
# ----------------------------------------------------------------------
def test_summarize_and_render(tmp_path):
    tracer = obs.enable()
    for index in range(4):
        with obs.span("engine.compute", kind="solve"):
            pass
    with obs.span("engine.batch", specs=4):
        pass
    path = str(tmp_path / "t.jsonl")
    obs.export_jsonl(path, tracer.drain())
    obs.disable()

    summary = obs.summarize(obs.load_spans(path))
    assert summary["spans"] == 5
    assert summary["by_name"]["engine.compute"]["count"] == 4
    assert summary["by_name"]["engine.batch"]["count"] == 1
    assert len(summary["slowest"]) == 5
    text = obs.render_summary(summary, sort="count")
    assert "engine.compute" in text and "slowest spans:" in text
    limited = obs.render_summary(summary, sort="count", limit=1)
    assert "engine.batch" not in limited.split("slowest")[0]
    with pytest.raises(ValueError):
        obs.render_summary(summary, sort="nonsense")


def test_render_trace_text_shape():
    assert obs.render_trace_text(None) == ""
    stats = {
        "spans_total": 3,
        "spans_dropped": 1,
        "by_name": {"a.b": {"count": 3, "total_s": 0.5, "max_s": 0.4}},
    }
    text = obs.render_trace_text(stats)
    assert text.splitlines() == [
        "repro_trace_spans_total 3",
        "repro_trace_spans_dropped_total 1",
        'repro_trace_span_count{name="a.b"} 3',
        'repro_trace_span_seconds_total{name="a.b"} 0.5',
    ]

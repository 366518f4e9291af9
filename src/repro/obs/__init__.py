"""repro.obs — zero-dependency tracing and profiling for the stack.

The serving stack spans service → batcher → engine → process-pool
workers → solver kernels; ``repro.obs`` makes one query's journey
through all of it visible as a tree of timed spans:

* :mod:`~repro.obs.tracer` — the contextvar-propagated span tracer:
  :func:`span` context managers with monotonic timings, parent/child
  ids, JSON-safe attributes, and explicit cross-process propagation
  (:func:`current_carrier` / :func:`attach` / :meth:`Tracer.ingest`)
  so spans from pool workers reattach under the submitting job's span;
* :mod:`~repro.obs.export` — JSONL trace files (byte-stable lines) and
  the ``repro_trace_*`` Prometheus-text extension of the service's
  ``metrics`` op dump;
* :mod:`~repro.obs.summary` — per-span-kind latency breakdowns behind
  the ``repro trace <jsonl>`` CLI.

Tracing is **off by default** and the disabled path is a deliberate
no-op fast path: :func:`span` returns one shared singleton, allocating
nothing — the tier-1 suite and the committed benchmark numbers run in
exactly that state (``benchmarks/bench_obs.py`` records the cost of
both states honestly).  Enable with :func:`enable`, the ``--trace``
CLI flag, or ``REPRO_TRACE=<path>`` in the environment.

Stdlib-only, and imported *by* the instrumented layers — never the
other way around — so it sits below everything without cycles.
"""

from .export import (
    JsonlExporter,
    export_jsonl,
    load_spans,
    render_trace_text,
    span_line,
)
from .summary import render_summary, summarize
from .tracer import (
    NOOP_SPAN,
    Span,
    Tracer,
    attach,
    current_carrier,
    disable,
    enable,
    get_tracer,
    span,
)

__all__ = [
    "JsonlExporter",
    "NOOP_SPAN",
    "Span",
    "Tracer",
    "attach",
    "current_carrier",
    "disable",
    "enable",
    "export_jsonl",
    "get_tracer",
    "load_spans",
    "render_summary",
    "render_trace_text",
    "span",
    "span_line",
    "summarize",
]

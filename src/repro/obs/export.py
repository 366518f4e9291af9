"""Span exporters: JSONL trace files and Prometheus-style text.

Two read-out formats, both derived from :meth:`Span.to_dict`:

* **JSONL** — one canonical JSON object per line
  (:func:`span_line` / :class:`JsonlExporter` / :func:`export_jsonl`),
  loadable with :func:`load_spans` and summarized by
  :mod:`repro.obs.summary` and the ``repro trace`` CLI.  Lines are
  byte-stable: the same finished span always serializes to the same
  bytes (sorted keys, no whitespace), so traces diff cleanly.
* **Prometheus text** — :func:`render_trace_text` turns
  :meth:`Tracer.stats` into ``repro_trace_*`` lines that the service's
  ``metrics`` op appends to its existing dump.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Union

from .tracer import Span

__all__ = [
    "JsonlExporter",
    "export_jsonl",
    "load_spans",
    "render_trace_text",
    "span_line",
]

SpanLike = Union[Span, Dict[str, Any]]


def span_line(span_obj: SpanLike) -> str:
    """One canonical JSONL line for a finished span (no newline)."""
    data = span_obj.to_dict() if isinstance(span_obj, Span) else span_obj
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


class JsonlExporter:
    """Appends spans to a JSONL trace file as they are handed over."""

    def __init__(self, path: str):
        self.path = path
        self._handle = open(path, "a", encoding="utf-8")
        self.exported = 0

    def export(self, spans: Iterable[SpanLike]) -> int:
        """Write spans; returns how many were written (and flushed)."""
        count = 0
        for span_obj in spans:
            self._handle.write(span_line(span_obj) + "\n")
            count += 1
        self._handle.flush()
        self.exported += count
        return count

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "JsonlExporter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def export_jsonl(path: str, spans: Iterable[SpanLike]) -> int:
    """One-shot append of a span batch to ``path``; returns the count."""
    with JsonlExporter(path) as exporter:
        return exporter.export(spans)


def load_spans(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file back into span dicts (blank-line safe)."""
    spans: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def render_trace_text(
    stats: Optional[Dict[str, Any]], prefix: str = "repro_trace"
) -> str:
    """Prometheus-style text for :meth:`Tracer.stats` output.

    Totals come first, then one ``_span_count`` / ``_span_seconds_total``
    pair per span name (label form, sorted).  Returns ``""`` for
    ``None`` so callers can append unconditionally.
    """
    if stats is None:
        return ""
    lines = [
        f"{prefix}_spans_total {stats.get('spans_total', 0)}",
        f"{prefix}_spans_dropped_total {stats.get('spans_dropped', 0)}",
    ]
    for name, entry in sorted(stats.get("by_name", {}).items()):
        label = name.replace('"', "'")
        lines.append(
            f'{prefix}_span_count{{name="{label}"}} {entry["count"]}'
        )
        lines.append(
            f'{prefix}_span_seconds_total{{name="{label}"}} {entry["total_s"]}'
        )
    return "\n".join(lines) + "\n"

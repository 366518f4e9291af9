"""Live service metrics: counters and log-bucketed latency histograms.

A single :class:`Metrics` registry per server, updated from the event
loop and the batcher's dispatch thread (every mutation takes the
registry lock).  Two read-out forms:

* :meth:`Metrics.snapshot` — a JSON-ready dict, returned by the
  protocol's ``stats`` op;
* :meth:`Metrics.render_text` — a plain-text dump (one
  ``repro_service_<name> <value>`` line each, Prometheus-style),
  returned by the ``metrics`` op.

Histogram quantiles are read from the bucket boundaries (the value
reported for p50/p99 is the upper bound of the containing bucket), so
they are estimates with bounded relative error — exact mean/max are
tracked alongside.

Snapshots are torn-read safe: one lock acquisition copies every raw
counter and histogram state, and the quantile math and text formatting
happen *outside* the lock — a scrape can never stall the hot
``observe()`` path or mix states from different moments.  When tracing
(:mod:`repro.obs`) is enabled, the tracer's span counters ride in the
same snapshot and ``render_text`` appends the ``repro_trace_*`` lines.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Sequence

from .. import obs

#: Latency bucket upper bounds (seconds): 100µs .. ~105s, doubling.
BUCKET_BOUNDS = tuple(0.0001 * 2**i for i in range(21))


def format_histogram(
    counts: Sequence[int], count: int, total: float, maximum: float
) -> Dict[str, Any]:
    """The JSON-ready view of raw histogram state (pure function).

    Operates on copied state so callers can snapshot under a lock and
    format outside it; :meth:`LatencyHistogram.snapshot` delegates here.
    """

    def quantile(q: float) -> float:
        if count == 0:
            return 0.0
        rank = q * count
        seen = 0
        for index, bucket_count in enumerate(counts):
            seen += bucket_count
            if seen >= rank:
                if index < len(BUCKET_BOUNDS):
                    # The bucket's upper bound, clamped to the observed
                    # max so quantiles never exceed a real measurement.
                    return min(BUCKET_BOUNDS[index], maximum)
                return maximum
        return maximum

    mean = total / count if count else 0.0
    return {
        "count": count,
        "mean_s": round(mean, 6),
        "p50_s": round(quantile(0.50), 6),
        "p99_s": round(quantile(0.99), 6),
        "max_s": round(maximum, 6),
    }


class LatencyHistogram:
    """Fixed log-spaced buckets plus exact count/sum/max."""

    def __init__(self):
        self.counts: List[int] = [0] * (len(BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def record(self, seconds: float) -> None:
        index = 0
        while index < len(BUCKET_BOUNDS) and seconds > BUCKET_BOUNDS[index]:
            index += 1
        self.counts[index] += 1
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    def raw(self):
        """Copied raw state: ``(counts, count, total, max)``."""
        return (list(self.counts), self.count, self.total, self.max)

    def snapshot(self) -> Dict[str, Any]:
        return format_histogram(*self.raw())


class Metrics:
    """A locked registry of named counters and latency histograms."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    def inc(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + by

    def observe(self, name: str, seconds: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = LatencyHistogram()
            histogram.record(seconds)

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def uptime(self) -> float:
        return time.monotonic() - self._started

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        # One lock acquisition copies all raw state; bucket walks and
        # quantile math happen on the copies, outside the lock.  Every
        # counter and histogram in one snapshot therefore comes from
        # the same instant — a scrape can never observe a request in
        # some counters but not others, and never recomputes quantiles
        # against buckets that mutate mid-walk.
        with self._lock:
            counters = dict(self._counters)
            raw = {
                name: histogram.raw()
                for name, histogram in self._histograms.items()
            }
        snap: Dict[str, Any] = {
            "uptime_s": round(self.uptime(), 3),
            "counters": dict(sorted(counters.items())),
            "latency": {
                name: format_histogram(*raw[name]) for name in sorted(raw)
            },
        }
        tracer = obs.get_tracer()
        if tracer is not None:
            snap["trace"] = tracer.stats()
        return snap

    def render_text(self) -> str:
        """Plain-text dump: one ``repro_service_<name> <value>`` per line.

        When tracing is enabled the ``repro_trace_*`` lines are appended
        from the *same* snapshot, so service and trace counters in one
        scrape are mutually consistent.
        """
        snap = self.snapshot()
        lines = [f"repro_service_uptime_seconds {snap['uptime_s']}"]
        for name, value in snap["counters"].items():
            lines.append(f"repro_service_{name} {value}")
        for name, histogram in snap["latency"].items():
            for field, value in histogram.items():
                lines.append(f"repro_service_{name}_{field} {value}")
        text = "\n".join(lines) + "\n"
        return text + obs.render_trace_text(snap.get("trace"))

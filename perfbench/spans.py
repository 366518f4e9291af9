"""Outside-in spans around the public entry points of each layer.

Nothing under ``src/`` is edited: :func:`install` swaps each entry
point for a wrapper in every loaded ``repro`` module that bound it by
name, so calls made from inside the library are traced too.  Spans
are kept in memory as ``[name, start, end, parent, op]`` rows and
written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: (module, attribute, span name).  ``Class.method`` attributes are
#: patched on the class.  The span name's first dotted part is the
#: layer its self time is charged to.
ENTRY_POINTS = [
    ("repro.topology.subdivision", "chr_complex", "topology.chr_complex"),
    ("repro.adversaries.fairness", "is_fair", "adversaries.is_fair"),
    ("repro.adversaries.setcon", "setcon", "adversaries.setcon"),
    (
        "repro.adversaries.agreement",
        "agreement_function_of",
        "adversaries.agreement_function_of",
    ),
    ("repro.core.ra", "r_affine", "core.r_affine"),
    ("repro.solver.api", "make_searcher", "solver.setup"),
    ("repro.solver.kernel", "BitsetKernel.search", "solver.search"),
    ("repro.certify.extract", "certified_search", "certify.certified_search"),
    ("repro.certify.checker", "check", "certify.check"),
    ("repro.engine.serialize", "serialize", "engine.serialize"),
    ("repro.engine.serialize", "deserialize", "engine.deserialize"),
    (
        "repro.service.client",
        "ServiceClient.query_response",
        "service.roundtrip",
    ),
]

#: The benchmark's own op span; its self time is the glue between
#: layers (engine dispatch, record building, the sweep cell body).
OP_SPAN = "bench.op"


class Tracer:
    """Span recorder shared by every wrapper of one run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op: Optional[int] = None
        self.nodes = 0
        self._open_spans: List[int] = []

    def _open(self, name: str) -> list:
        parent = self._open_spans[-1] if self._open_spans else None
        row = [name, time.perf_counter(), None, parent, self.op]
        self._open_spans.append(len(self.spans))
        self.spans.append(row)
        return row

    def _close(self, row: list) -> None:
        row[2] = time.perf_counter()
        self._open_spans.pop()

    @contextlib.contextmanager
    def op_span(self, op: int):
        """The benchmark's span around one timed op; tags nested spans."""
        self.op = op
        row = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(row)
            self.op = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        counts_nodes = name == "solver.search"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(row)
                if counts_nodes and self.op is not None:
                    self.nodes += getattr(args[0], "nodes_explored", 0)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )

    # -- aggregation ----------------------------------------------------
    def self_times(
        self, weight: Callable[[Optional[int]], float]
    ) -> Dict[str, float]:
        """Span name -> total self time (duration minus child spans).

        Each span's self time is multiplied by ``weight(op)``, ``op``
        being the timed op it ran in (``None`` outside ops, at set-up).
        A weight of 0 leaves a span out.
        """
        child_time: Dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, op) in enumerate(self.spans):
            if end is not None:
                scale = weight(op)
                if scale:
                    totals[name] += ((end - start) - child_time[index]) * scale
        return dict(totals)


def install(tracer: Tracer) -> None:
    """Route every entry point in :data:`ENTRY_POINTS` through ``tracer``."""
    for module_name, attribute, span_name in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method = attribute.split(".")
            cls = getattr(module, class_name)
            setattr(cls, method, tracer.wrap(span_name, getattr(cls, method)))
            continue
        original = getattr(module, attribute)
        wrapped = tracer.wrap(span_name, original)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and (
                getattr(loaded, attribute, None) is original
            ):
                setattr(loaded, attribute, wrapped)


def layer_self_times(self_times: Dict[str, float]) -> Dict[str, float]:
    """Layer (first dotted part of the span name) -> self seconds."""
    layers: Dict[str, float] = defaultdict(float)
    for name, seconds in self_times.items():
        layers[name.split(".")[0]] += seconds
    return dict(layers)

"""Bench-side span recorder.

The benchmark opens a span around each public call into a ``repro`` layer
(``circuits → tensornet → paths → core → plan.compile → plan.warm_cache →
execute → subtask[i]``) and attaches counts at the same boundaries.
Spans stay in memory and are written once, at the end of the run, as
Chrome-trace JSON (load in ``chrome://tracing`` or Perfetto).  A layer's
self time is its spans' duration minus the part their child spans cover,
so self times sum to the root span by construction.

Recording from *inside* the program (``execution/trace.py``) is a later
issue; until then worker processes show up only through the counters the
coordinator reads back.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    layer: str
    workload: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    worker: Optional[int] = None
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects nested spans; ``enabled=False`` keeps only the clock calls.

    The disabled recorder runs the same ``with`` statements, so the wall
    time of a pass with and without recording differs by exactly what
    recording costs — that ratio is ``bench.trace_overhead``.
    """

    def __init__(self, workload: str, enabled: bool = True) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, layer: str, worker: Optional[int] = None) -> Iterator[Span]:
        span = Span(name, layer, self.workload, time.perf_counter(), worker=worker)
        if self.enabled:
            span.parent = self._stack[-1] if self._stack else None
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            if self.enabled:
                self._stack.pop()

    # ------------------------------------------------------------------
    def seconds(self, name: str) -> List[float]:
        """Durations of every span called ``name`` (or ``name[...]``)."""
        return [
            s.seconds
            for s in self.spans
            if s.name == name or s.name.startswith(name + "[")
        ]

    def self_seconds_by_layer(self) -> Dict[str, float]:
        """Self time per layer: span duration minus its direct children."""
        child_total = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_total[span.parent] += span.seconds
        out: Dict[str, float] = {}
        for span, children in zip(self.spans, child_total):
            out[span.layer] = out.get(span.layer, 0.0) + span.seconds - children
        return out

    def root_seconds(self) -> float:
        return sum(s.seconds for s in self.spans if s.parent is None)

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as complete (``ph: X``) Chrome-trace events."""
        if not self.spans:
            return
        origin = min(s.start for s in self.spans)
        events = [
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.seconds * 1e6,
                "pid": 0,
                "tid": s.worker or 0,
                "args": {"workload": s.workload, "parent": s.parent, **s.counts},
            }
            for s in self.spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)

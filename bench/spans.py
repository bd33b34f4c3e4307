"""Timing of the benchmark's calls into hcramsey, with optional spans.

Every call a workload makes goes through `Tracer.span`, which always
appends the call's duration to `durations`: run.py builds wall_s from
these.  With tracing on, each call also leaves a span record (name,
layer, start, end, parent, pass id and counts taken at the same
boundary) in memory; the pass's root span is added by `close`.
"""

from __future__ import annotations

import time


class _Span:
    __slots__ = ("tracer", "name", "layer", "counts", "start")

    def __init__(self, tracer, name, layer):
        self.tracer = tracer
        self.name = name
        self.layer = layer
        self.counts = {}

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr.durations.append(end - self.start)
        if tr.enabled:
            tr.spans.append({"name": self.name, "layer": self.layer, "pass": tr.pass_id,
                             "start": self.start, "end": end, "counts": self.counts})
        return False

    def count(self, **values):
        self.counts.update(values)


class Tracer:
    """Call durations of one workload pass, and its spans when `enabled`."""

    def __init__(self, enabled: bool, pass_id: int):
        self.enabled = enabled
        self.pass_id = pass_id
        self.durations: list[float] = []
        self.spans: list[dict] = []
        self.counts: dict = {}

    def span(self, name: str, layer: str) -> _Span:
        return _Span(self, name, layer)

    def count(self, **values):
        """Counts that belong to the pass rather than to one call."""
        self.counts.update(values)

    def close(self, start: float, end: float) -> None:
        """Add the pass's root span as the parent of every call span."""
        if not self.enabled:
            return
        root = len(self.spans)
        for s in self.spans:
            s["parent"] = root
        self.spans.append({"name": "pass", "layer": "bench", "pass": self.pass_id,
                           "start": start, "end": end, "counts": self.counts, "parent": None})


def self_times(spans: list[dict]) -> dict:
    """Seconds per layer spent in that layer's spans minus the time their
    child spans cover."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict = {}
    for s, covered in zip(spans, child_time):
        out[s["layer"]] = out.get(s["layer"], 0.0) + (s["end"] - s["start"]) - covered
    return out

"""In-memory spans and the per-layer sums the benchmark derives from them.

A span records name, start, end, parent span and job id, plus integer or
float attributes (bytes read, items produced) summed per name later. Spans
stay in a list until the caller writes them out at the end of a run.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, job: str):
        self.job = job
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "job": self.job,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def summarize(spans: list[dict]) -> tuple[dict, dict, float]:
    """Per-name self seconds, per-name summed attributes, and the summed
    duration of root spans (the work the spans cover end to end)."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    self_s: dict[str, float] = defaultdict(float)
    attrs: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    root_s = 0.0
    for s in spans:
        duration = s["end"] - s["start"]
        self_s[s["name"]] += duration - child_time[s["id"]]
        for key, value in s["attrs"].items():
            attrs[s["name"]][key] += value
        if s["parent"] is None:
            root_s += duration
    return dict(self_s), {k: dict(v) for k, v in attrs.items()}, root_s

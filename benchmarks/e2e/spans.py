"""In-memory spans recorded by the benchmark around its calls into each layer.

One span per layer-boundary call: name (the layer), start, end, parent
and the workload id.  Kept in a list and written out when the run ends.
A layer's self time is its spans' duration minus the part their child
spans cover, so the self times of one tree partition its root's duration.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator


class SpanLog:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def self_seconds(spans: list[dict[str, Any]], root: int) -> dict[str, float]:
    """Self time by span name over the tree under span ``root``."""
    children: dict[int, list[dict[str, Any]]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out: dict[str, float] = {}
    todo = [spans[root]]
    while todo:
        s = todo.pop()
        kids = children.get(s["id"], [])
        own = (s["end"] - s["start"]) - sum(k["end"] - k["start"] for k in kids)
        out[s["name"]] = out.get(s["name"], 0.0) + own
        todo.extend(kids)
    return out

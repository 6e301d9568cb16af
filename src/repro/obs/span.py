"""Spans: the nodes of a hierarchical execution trace.

A :class:`Span` is one timed region of a run — the run itself, a
pipeline stage, one task, or an individual kernel — with typed metric
attachments (see :mod:`repro.obs.metrics`) and free-form attributes.
Spans are flat records linked by ``parent_id``; :func:`build_tree`
reassembles the hierarchy for rendering and structural comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from .metrics import validate_metric

__all__ = [
    "KINDS",
    "Span",
    "SpanNode",
    "build_tree",
]

#: The span taxonomy, outermost first.  ``counter`` spans are synthetic
#: zero-width records carrying metrics with no timed region of their own;
#: ``event`` spans are zero-width records of a fact the coordinator
#: learned at an instant (the run's ``plan``, a worker message).
KINDS = ("run", "task", "stage", "kernel", "counter", "event")


@dataclass
class Span:
    """One timed (or synthetic) region of a traced run."""

    #: Tracer-unique id; ids are allocated in start order.
    span_id: int
    name: str
    #: One of :data:`KINDS`.
    kind: str
    #: Start time on the tracer's clock (seconds; monotonic, relative
    #: to the clock's own epoch).
    t0: float
    #: End time; ``None`` while the span is still open.
    t1: float | None = None
    #: Enclosing span's id; ``None`` for roots.
    parent_id: int | None = None
    #: Identity of the recording thread/worker (Chrome-trace ``tid``).
    thread: int = 0
    #: Typed metric attachments (validated names, finite floats).
    metrics: dict[str, float] = field(default_factory=dict)
    #: Free-form annotations (executor name, voxel counts, ...).
    attrs: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("span name must be non-empty")
        if self.kind not in KINDS:
            raise ValueError(f"unknown span kind {self.kind!r}; use one of {KINDS}")

    @property
    def closed(self) -> bool:
        return self.t1 is not None

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        return 0.0 if self.t1 is None else self.t1 - self.t0

    def add_metric(self, name: str, value: float) -> None:
        """Accumulate ``value`` onto the named metric (additive)."""
        value = validate_metric(name, value)
        self.metrics[name] = self.metrics.get(name, 0.0) + value

    def set_metric(self, name: str, value: float) -> None:
        """Overwrite the named metric."""
        self.metrics[name] = validate_metric(name, value)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (the JSON-lines record body)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "t0": self.t0,
            "t1": self.t1,
            "thread": self.thread,
            "metrics": dict(self.metrics),
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Span":
        """Rebuild a span from :meth:`to_dict` output."""
        metrics = {
            str(k): float(v) for k, v in dict(payload.get("metrics", {})).items()
        }
        t1 = payload.get("t1")
        return cls(
            span_id=int(payload["span_id"]),
            parent_id=(
                None if payload.get("parent_id") is None
                else int(payload["parent_id"])
            ),
            name=str(payload["name"]),
            kind=str(payload["kind"]),
            t0=float(payload["t0"]),
            t1=None if t1 is None else float(t1),
            thread=int(payload.get("thread", 0)),
            metrics=metrics,
            attrs=dict(payload.get("attrs", {})),
        )


@dataclass
class SpanNode:
    """A span with its resolved children (the tree view of a trace)."""

    span: Span
    children: list["SpanNode"] = field(default_factory=list)

    def walk(self) -> Iterable["SpanNode"]:
        """This node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


def build_tree(spans: Iterable[Span]) -> list[SpanNode]:
    """Link flat spans into root trees (children in start order).

    Spans whose ``parent_id`` is unknown (e.g. a partial export) are
    promoted to roots rather than dropped.
    """
    ordered = sorted(spans, key=lambda s: s.span_id)
    nodes = {s.span_id: SpanNode(s) for s in ordered}
    roots: list[SpanNode] = []
    for span in ordered:
        node = nodes[span.span_id]
        parent = (
            nodes.get(span.parent_id) if span.parent_id is not None else None
        )
        if parent is None:
            roots.append(node)
        else:
            parent.children.append(node)
    return roots

"""The span tracer: hierarchical, thread-safe, clock-injectable.

One :class:`Tracer` records every span of a run.  Open/close nesting is
tracked per thread (the master-worker executor's ranks may share one
tracer), finished spans accumulate in one id-ordered list, and the
clock is injected so tests can drive a deterministic fake clock.

Entering a span also installs the tracer as the *ambient* tracer of the
current execution context (:mod:`repro.obs.runtime`), which is how deep
kernels — the SMO solvers, the batched correlation engine — attach
child spans without threading a tracer through every signature.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterable, Mapping

from . import runtime
from .metrics import validate_metric
from .span import Span, SpanNode, build_tree

__all__ = ["Tracer", "SpanHandle"]


class SpanHandle:
    """Context manager for one live span.

    ``with tracer.span("correlate", kind="stage") as span:`` yields the
    underlying :class:`~repro.obs.span.Span` (or a detached throwaway
    span when the tracer is disabled — callers can attach metrics
    unconditionally).  On exit the span is closed, its ``wall_seconds``
    metric is set from the clock, and nesting state is restored.
    """

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._token: Any = None

    def __enter__(self) -> Span:
        if self._tracer.enabled:
            self._tracer._push(self._span)
            self._token = runtime._install(self._tracer)
        return self._span

    def __exit__(self, *exc_info: Any) -> None:
        span = self._span
        span.t1 = self._tracer.clock()
        span.metrics.setdefault("wall_seconds", span.duration)
        span.metrics.setdefault("calls", 1.0)
        if self._tracer.enabled:
            runtime._uninstall(self._token)
            self._tracer._pop(span)
            self._tracer._notify(span)


class Tracer:
    """Records a single run's span tree.

    Parameters
    ----------
    clock:
        Monotonic seconds source (default ``time.perf_counter``).
        Inject a fake for deterministic tests.
    enabled:
        When ``False`` the tracer is a near-free stub: :meth:`span`
        still times (callers may read ``Span.duration``) but nothing is
        recorded.  This is the overhead-measurement baseline.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        *,
        enabled: bool = True,
    ) -> None:
        self.clock = clock
        self.enabled = enabled
        self._spans: list[Span] = []
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._listeners: list[Callable[[Span], None]] = []

    # -- close listeners ---------------------------------------------------

    def add_listener(self, listener: Callable[[Span], None]) -> None:
        """Register a callback fired on every locally closed span.

        Listeners are the live telemetry plane's one input
        (:mod:`repro.obs.live`) and the incremental trace writer's: they
        fire when a ``with``-managed span exits and when :meth:`record`
        appends a synthetic span, but **not** for spans folded in via
        :meth:`merge` — merged worker exports were already observed (or
        counted) where they closed, and re-notifying here would double
        count them.  Callbacks run on the closing thread and must be
        fast and thread-safe.
        """
        with self._lock:
            self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[Span], None]) -> None:
        """Unregister a close listener (no-op if absent)."""
        with self._lock:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

    def _notify(self, span: Span) -> None:
        if not self._listeners:
            return
        with self._lock:
            listeners = tuple(self._listeners)
        for listener in listeners:
            listener(span)

    # -- nesting bookkeeping ---------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def current(self) -> Span | None:
        """The innermost span open on the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open_kinds(self) -> set[str]:
        """Kinds of the spans open on the calling thread."""
        return {span.kind for span in self._stack()}

    # -- recording -------------------------------------------------------

    def span(
        self,
        name: str,
        kind: str = "kernel",
        attrs: Mapping[str, Any] | None = None,
    ) -> SpanHandle:
        """Open a span as a context manager (see :class:`SpanHandle`)."""
        t0 = self.clock()
        if not self.enabled:
            detached = Span(span_id=-1, name=name, kind=kind, t0=t0)
            return SpanHandle(self, detached)
        parent = self.current()
        with self._lock:
            span = Span(
                span_id=self._next_id,
                name=name,
                kind=kind,
                t0=t0,
                parent_id=None if parent is None else parent.span_id,
                thread=threading.get_ident() & 0xFFFF,
                attrs=dict(attrs) if attrs else {},
            )
            self._next_id += 1
            self._spans.append(span)
        return SpanHandle(self, span)

    def record(
        self,
        name: str,
        kind: str = "counter",
        seconds: float = 0.0,
        metrics: Mapping[str, float] | None = None,
        attrs: Mapping[str, Any] | None = None,
    ) -> Span | None:
        """Append an already-measured (synthetic, zero-width) span.

        This is how externally timed quantities — legacy ``add_time``
        charges, merged worker exports, simulated schedules — enter the
        trace without a live ``with`` block.  Returns the span, or
        ``None`` when the tracer is disabled.
        """
        if seconds < 0:
            raise ValueError("seconds must be >= 0")
        if not self.enabled:
            return None
        now = self.clock()
        parent = self.current()
        resolved = {"wall_seconds": float(seconds), "calls": 1.0}
        if metrics:
            resolved.update(
                {name_: validate_metric(name_, v) for name_, v in metrics.items()}
            )
        with self._lock:
            span = Span(
                span_id=self._next_id,
                name=name,
                kind=kind,
                t0=now,
                t1=now,
                parent_id=None if parent is None else parent.span_id,
                thread=threading.get_ident() & 0xFFFF,
                metrics=resolved,
                attrs=dict(attrs) if attrs else {},
            )
            self._next_id += 1
            self._spans.append(span)
        self._notify(span)
        return span

    def add_metric(self, name: str, value: float) -> bool:
        """Accumulate a metric onto the innermost open span.

        Returns ``False`` (and records nothing) when no span is open or
        the tracer is disabled — callers need not guard.
        """
        if not self.enabled:
            return False
        span = self.current()
        if span is None:
            return False
        span.add_metric(name, value)
        return True

    # -- reading ---------------------------------------------------------

    def spans(self) -> list[Span]:
        """All recorded spans in id (start) order; a shallow copy."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def tree(self) -> list[SpanNode]:
        """The trace as root :class:`~repro.obs.span.SpanNode` trees."""
        return build_tree(self.spans())

    def aggregate(self, kind: str | None = None) -> dict[str, dict[str, float]]:
        """Metric sums grouped by span name (optionally one kind only).

        Every metric is summed across the matching spans; ``calls``
        defaults to 1 per span so the result doubles as a call count.
        """
        out: dict[str, dict[str, float]] = {}
        for span in self.spans():
            if kind is not None and span.kind != kind:
                continue
            bucket = out.setdefault(span.name, {})
            metrics = span.metrics if span.metrics else {"calls": 1.0}
            for mname, value in metrics.items():
                bucket[mname] = bucket.get(mname, 0.0) + value
            bucket.setdefault("calls", 1.0)
        return out

    # -- merging ---------------------------------------------------------

    def export(self) -> list[dict[str, Any]]:
        """Picklable span records (the worker → master payload)."""
        return [span.to_dict() for span in self.spans()]

    def merge(
        self,
        spans: "Iterable[Mapping[str, Any] | Span] | Tracer",
        reroot: bool = True,
    ) -> int:
        """Fold foreign spans (another tracer, or exported records) in.

        Incoming spans are re-identified into this tracer's id space
        with their internal parent links preserved; incoming *roots*
        are attached under the calling thread's innermost open span
        (``reroot=True``) so worker traces nest under the run span they
        are merged into.  Returns the number of spans merged.
        """
        if isinstance(spans, Tracer):
            spans = spans.spans()
        incoming = [
            s if isinstance(s, Span) else Span.from_dict(s) for s in spans
        ]
        if not self.enabled or not incoming:
            return 0
        incoming.sort(key=lambda s: s.span_id)
        anchor = self.current() if reroot else None
        with self._lock:
            id_map: dict[int, int] = {}
            for span in incoming:
                id_map[span.span_id] = self._next_id
                self._next_id += 1
            known = set(id_map)
            for span in incoming:
                if span.parent_id is not None and span.parent_id in known:
                    parent_id: int | None = id_map[span.parent_id]
                elif anchor is not None:
                    parent_id = anchor.span_id
                else:
                    parent_id = None
                self._spans.append(
                    Span(
                        span_id=id_map[span.span_id],
                        name=span.name,
                        kind=span.kind,
                        t0=span.t0,
                        t1=span.t1,
                        parent_id=parent_id,
                        thread=span.thread,
                        metrics=dict(span.metrics),
                        attrs=dict(span.attrs),
                    )
                )
        return len(incoming)

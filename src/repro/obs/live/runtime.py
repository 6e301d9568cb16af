"""The in-flight telemetry plane: a fold over the run's own trace.

Post-hoc tracing (:mod:`repro.obs.tracer`) answers "what happened";
this module answers "what is happening".  A :class:`LiveRuntime` is a
small lock-protected aggregate — monotonic counters, gauges, totals
(the denominators progress and ETA are derived from), fixed-bucket
histograms with cheap p50/p99, and per-rank state — with exactly one
input: the close listener :meth:`LiveRuntime.attach_tracer` registers
on the run's tracer.  Every fact the plane shows is a span, written
once where the fact is known, and :data:`FOLD` says what each closed
span adds:

=========================================  ==================================
span (``kind:name``)                       folds into
=========================================  ==================================
any                                        counter ``spans_<kind>``
``task:*``                                 counter ``tasks``, histogram
                                           ``task_seconds``
``kernel:correlate_normalize_batched`` /   counter ``engine_tiles`` (the
``_sparse``                                walk's ``tiles`` metric)
``stage:stream``                           counter ``rtfmri_steps``,
                                           histogram ``rtfmri_step_seconds``
``event:plan``                             totals ``tasks`` / ``tiles``,
                                           gauge ``n_workers``
``event:result``                           counter ``tasks`` or ``tiles`` (by
                                           ``item``); rank ``worker`` heard,
                                           its ``completed`` + 1
``event:request`` / ``done``               rank ``worker`` heard
``event:error``                            counter ``task_errors``; rank heard
``event:lost``                             rank ``worker`` lost
=========================================  ==================================

Spans merged from another tracer (a worker's export) do not notify, so
a worker's task spans never count twice against the coordinator's
``result`` events.  A rank's age is the time since the master last
heard from it.  Nothing outside this package writes to a runtime but
the CLI, which sets the one static gauge a command declares.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..span import Span
    from ..tracer import Tracer

__all__ = ["DEFAULT_BUCKETS", "FOLD", "LiveHistogram", "LiveRuntime"]

#: Default histogram bucket upper bounds: a 1-2-5 ladder from 10 µs to
#: 500 s, covering per-TR feedback steps through multi-minute stages.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    m * (10.0**e) for e in range(-5, 3) for m in (1.0, 2.0, 5.0)
)

#: Seconds the master has not heard from a worker after which it is
#: flagged stale in snapshots (the TCP transport's loss threshold).
DEFAULT_STALE_AFTER = 30.0


class LiveHistogram:
    """A fixed-bucket latency histogram with cumulative-bucket quantiles.

    Buckets are upper bounds (Prometheus ``le`` semantics) plus one
    overflow bucket.  ``observe`` is O(len(bounds)) with no allocation;
    quantile estimates return the upper bound of the bucket containing
    the requested rank (clamped to the observed max), which is exact
    enough for live p50/p99 displays.  Not internally locked — the
    owning :class:`LiveRuntime` serializes access.
    """

    __slots__ = ("bounds", "counts", "total", "count", "max")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("bucket bounds must be a sorted non-empty tuple")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = overflow
        self.total = 0.0
        self.count = 0
        self.max = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.count += 1
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile sample."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            cumulative += bucket_count
            if cumulative >= target:
                return min(bound, self.max)
        return self.max

    def state(self) -> dict[str, Any]:
        """JSON-ready snapshot (cumulative bucket counts, ``le`` keyed)."""
        cumulative = 0
        buckets: list[list[Any]] = []
        for bound, bucket_count in zip(self.bounds, self.counts):
            cumulative += bucket_count
            buckets.append([bound, cumulative])
        buckets.append(["+Inf", self.count])
        return {
            "count": self.count,
            "sum": self.total,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "buckets": buckets,
        }


@dataclass
class _WorkerState:
    """What the master last heard from one worker rank."""

    last_seen: float
    completed: float = 0.0
    lost: bool = False


class LiveRuntime:
    """Thread-safe in-flight telemetry aggregate of one run.

    Parameters
    ----------
    clock:
        Monotonic seconds source (default ``time.monotonic``); inject a
        fake for deterministic tests.
    stale_after:
        Seconds unheard past which a worker is flagged stale in
        snapshots.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        *,
        stale_after: float = DEFAULT_STALE_AFTER,
    ) -> None:
        if stale_after <= 0:
            raise ValueError("stale_after must be positive")
        self.clock = clock
        self.stale_after = stale_after
        self._lock = threading.Lock()
        self._t0 = clock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._totals: dict[str, float] = {}
        self._hists: dict[str, LiveHistogram] = {}
        self._workers: dict[int, _WorkerState] = {}

    # -- the plane's primitives (written by the fold) ---------------------

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to a monotonic counter (negative deltas rejected)."""
        if value < 0:
            raise ValueError("counters are monotonic; value must be >= 0")
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set a point-in-time gauge (may move either direction)."""
        with self._lock:
            self._gauges[name] = float(value)

    def set_total(self, name: str, value: float) -> None:
        """Declare the known denominator for progress counter ``name``."""
        if value < 0:
            raise ValueError("totals must be >= 0")
        with self._lock:
            self._totals[name] = float(value)
            self._counters.setdefault(name, 0.0)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the named histogram."""
        with self._lock:
            hist = self._hists.get(name)
            if hist is None:
                hist = self._hists.setdefault(name, LiveHistogram())
            hist.observe(value)

    def heartbeat(self, rank: int, completed: float = 0.0) -> None:
        """Note that the master heard from ``rank``; ``completed`` adds
        to its count of results received."""
        now = self.clock()
        with self._lock:
            state = self._workers.setdefault(rank, _WorkerState(now))
            state.last_seen = now
            state.lost = False
            state.completed += completed

    def worker_lost(self, rank: int) -> None:
        """Flag ``rank`` as lost (the master's peer-loss verdict)."""
        now = self.clock()
        with self._lock:
            self._workers.setdefault(rank, _WorkerState(now)).lost = True

    # -- the one input ---------------------------------------------------

    def on_span_close(self, span: "Span") -> None:
        """Tracer listener: fold one closed span in (see :data:`FOLD`)."""
        self.inc(f"spans_{span.kind}")
        fold = FOLD.get((span.kind, span.name)) or FOLD.get((span.kind, None))
        if fold is not None:
            fold(self, span)

    def attach_tracer(self, tracer: "Tracer") -> None:
        """Fold every span ``tracer`` closes from now on."""
        tracer.add_listener(self.on_span_close)

    def detach_tracer(self, tracer: "Tracer") -> None:
        """Stop folding ``tracer``'s spans."""
        tracer.remove_listener(self.on_span_close)

    # -- reading ---------------------------------------------------------

    def elapsed(self) -> float:
        """Seconds since the runtime was constructed."""
        return self.clock() - self._t0

    def counter(self, name: str) -> float:
        """Current value of one counter (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0.0)

    def snapshot_state(self) -> dict[str, Any]:
        """A consistent copy of all live state (one lock acquisition)."""
        now = self.clock()
        with self._lock:
            return {
                "elapsed_s": now - self._t0,
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "totals": dict(self._totals),
                "histograms": {
                    name: hist.state() for name, hist in self._hists.items()
                },
                "workers": {
                    rank: {
                        "age_s": max(0.0, now - state.last_seen),
                        "completed": state.completed,
                        "lost": state.lost,
                    }
                    for rank, state in self._workers.items()
                },
            }


# -- the fold ---------------------------------------------------------------


def _wall(span: "Span") -> float:
    return float(span.metrics.get("wall_seconds", span.duration))


def _task(rt: LiveRuntime, span: "Span") -> None:
    rt.inc("tasks")
    rt.observe("task_seconds", _wall(span))


def _walk(rt: LiveRuntime, span: "Span") -> None:
    rt.inc("engine_tiles", span.metrics.get("tiles", 0.0))


def _stream_step(rt: LiveRuntime, span: "Span") -> None:
    rt.inc("rtfmri_steps")
    rt.observe("rtfmri_step_seconds", _wall(span))


def _plan(rt: LiveRuntime, span: "Span") -> None:
    for name in ("tasks", "tiles"):
        if name in span.metrics:
            rt.set_total(name, span.metrics[name])
    rt.set_gauge("n_workers", float(span.attrs["n_workers"]))


def _message(rt: LiveRuntime, span: "Span") -> None:
    """A message the coordinator received: a result ticks its item's
    kind; any message refreshes the rank it came from."""
    if span.name == "result":
        tile = str(span.attrs.get("item", "")).startswith("tile:")
        rt.inc("tiles" if tile else "tasks")
    elif span.name == "error":
        rt.inc("task_errors")
    rank = span.attrs.get("worker")
    if rank is None:
        return
    if span.name == "lost":
        rt.worker_lost(rank)
    else:
        rt.heartbeat(rank, completed=float(span.name == "result"))


#: What a closed span adds to the plane, by ``(kind, name)``; a ``None``
#: name matches every span of the kind.  Spans with no entry only tick
#: ``spans_<kind>``.
FOLD: dict[tuple[str, str | None], Callable[[LiveRuntime, "Span"], None]] = {
    ("task", None): _task,
    ("kernel", "correlate_normalize_batched"): _walk,
    ("kernel", "correlate_normalize_sparse"): _walk,
    ("stage", "stream"): _stream_step,
    ("event", "plan"): _plan,
    ("event", "request"): _message,
    ("event", "result"): _message,
    ("event", "error"): _message,
    ("event", "done"): _message,
    ("event", "lost"): _message,
}

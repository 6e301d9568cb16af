"""RunContext: the one telemetry and configuration carrier of a run.

Every executor — serial, process pool, master-worker, and the rtfmri
closed loop — threads a :class:`RunContext` through the stage graph, so
per-stage wall time and run counters are recorded the same way no
matter which path executed the work.  Reports and the ``--json`` CLI
output consume this object instead of scattering
``time.perf_counter()`` calls through the drivers.

The recording substrate is a span :class:`~repro.obs.tracer.Tracer`, and
it is the *only* one: timer blocks open ``stage`` spans, tasks open
``task`` spans, :meth:`RunContext.increment` attaches a ``ctr.*`` metric
to the innermost open span, and every reading —
:attr:`RunContext.stages`, :attr:`RunContext.task_seconds`,
:meth:`RunContext.counters` — is *derived* by aggregating the span
list.  Merging a worker's telemetry is therefore merging its spans.
The context measures; it models nothing (the performance models read
the trace afterwards, through :mod:`repro.obs.perf`).
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ContextManager, Iterator, Mapping

import numpy as np

from ..obs.span import Span
from ..obs.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.pipeline import FCMAConfig

__all__ = ["RunContext", "StageStats", "StageTimer"]

#: Metric prefix carrying run counters on spans.
_CTR_PREFIX = "ctr."


@dataclass
class StageStats:
    """Accumulated telemetry of one pipeline stage."""

    #: Total wall-clock seconds spent in the stage across all tasks.
    seconds: float = 0.0
    #: Times the stage ran (== tasks for per-task stages).
    calls: int = 0


class StageTimer:
    """Handle yielded by :meth:`RunContext.timer`; read ``seconds`` after
    the ``with`` block for this call's own elapsed time."""

    def __init__(self) -> None:
        self.seconds: float = 0.0


class RunContext:
    """Configuration, determinism, and instrumentation for one run.

    Parameters
    ----------
    config:
        The pipeline configuration all tasks of the run share.
    seed:
        Seed for :meth:`rng`; deterministic components ignore it, but
        any stochastic stage (noise models, heterogeneity draws) must
        draw from here so executors stay seed-reproducible.
    tracer:
        The span tracer recording this run (default: a fresh enabled
        :class:`~repro.obs.tracer.Tracer`).  Inject one with a fake
        clock for deterministic trace tests, or a disabled tracer to
        measure tracing overhead — a disabled tracer records nothing,
        run counters included.

    All recorded state lives in the tracer, which has its own locking.
    """

    def __init__(
        self,
        config: "FCMAConfig | None" = None,
        *,
        seed: int | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if config is None:
            from ..core.pipeline import FCMAConfig

            config = FCMAConfig()
        self.config = config
        self.seed = seed
        self.tracer = tracer if tracer is not None else Tracer()
        #: Free-form run annotations (executor name, worker count, the
        #: walked tile, the finished run's counter totals, ...).
        self.metadata: dict[str, Any] = {}

    # -- determinism -----------------------------------------------------

    def rng(self) -> np.random.Generator:
        """A fresh generator from this run's seed (0 if unseeded)."""
        return np.random.default_rng(0 if self.seed is None else self.seed)

    # -- recording -------------------------------------------------------

    @contextmanager
    def timer(self, stage: str) -> Iterator[StageTimer]:
        """Time a block and charge it to ``stage``.

        Opens a ``stage`` span on the run's tracer; the yielded
        :class:`StageTimer` carries this call's elapsed seconds after
        the block exits (for per-event latencies such as rtfmri
        feedback), while the trace accumulates the total.
        """
        handle = StageTimer()
        span_cm = self.tracer.span(stage, kind="stage")
        span = span_cm.__enter__()
        try:
            yield handle
        finally:
            span_cm.__exit__(None, None, None)
            handle.seconds = span.duration

    def run_span(
        self, executor: str, dataset: Any = None
    ) -> ContextManager[Span | None]:
        """The root ``run`` span an executor wraps its whole run in.

        No-op (yields ``None``) if a run span is already open on the
        calling thread, so executors that delegate to one another —
        e.g. the pool's single-worker fallback to the serial path —
        do not nest a second root.

        When the executor passes the dataset it is running, the span
        carries the dataset *geometry* (voxels, subjects, epochs, epoch
        length) and the pipeline variant as attributes, so a trace file
        alone is enough for the performance observatory
        (:mod:`repro.obs.perf`) to recompute model predictions.
        """
        if "run" in self.tracer.open_kinds():
            return nullcontext(None)
        attrs: dict[str, Any] = {"executor": executor}
        attrs["variant"] = getattr(self.config, "variant", None)
        attrs["task_voxels"] = getattr(self.config, "task_voxels", None)
        if dataset is not None:
            attrs["dataset"] = getattr(dataset, "name", None)
            for key in ("n_voxels", "n_subjects", "n_epochs", "epoch_length"):
                value = getattr(dataset, key, None)
                if value is not None:
                    attrs[key] = int(value)
        return self.tracer.span("run", kind="run", attrs=attrs)

    def task_span(self, n_voxels: int, first_voxel: int) -> ContextManager[Span]:
        """The per-task span :func:`~repro.exec.stage_graph.execute_task`
        wraps one task's stage-graph run in."""
        return self.tracer.span(
            "task",
            kind="task",
            attrs={"n_voxels": int(n_voxels), "first_voxel": int(first_voxel)},
        )

    def add_time(self, stage: str, seconds: float, calls: int = 1) -> None:
        """Charge ``seconds`` of externally measured wall time to
        ``stage`` (recorded as a synthetic stage span)."""
        if seconds < 0:
            raise ValueError("seconds must be >= 0")
        self.tracer.record(
            stage,
            kind="stage",
            seconds=seconds,
            metrics={"calls": float(calls)},
        )

    def increment(self, name: str, value: int | float = 1) -> None:
        """Add ``value`` to the named run counter.

        The one write is a ``ctr.<name>`` metric on the innermost open
        span (per-task/per-stage granularity in the trace); totals are
        read back with :meth:`counters`.  Totals are sums over tasks,
        so count only what adds: a ratio is derived from two totals
        where it is shown (:meth:`timing_report` derives
        ``stage12_density``).  A disabled tracer records nothing, so
        its context counts nothing.
        """
        if not self.tracer.add_metric(_CTR_PREFIX + name, float(value)):
            # No span open (library use outside a run): keep the counter
            # in the trace anyway as a standalone counter span.
            self.tracer.record(
                name, kind="counter", metrics={_CTR_PREFIX + name: float(value)}
            )

    def merge(self, other: "RunContext") -> None:
        """Fold another in-process context's telemetry into this one:
        its spans — stage time, tasks and counters alike — are re-rooted
        under the calling thread's open span.  (Executors fold worker
        telemetry in with :meth:`merge_export`, whatever the worker is.)
        """
        self.tracer.merge(other.tracer)

    def export(self) -> dict[str, Any]:
        """Picklable telemetry snapshot (no locks, no config): the span
        records every worker — pool process, thread rank, TCP rank —
        ships home; fold it back with :meth:`merge_export`."""
        return {"spans": self.tracer.export()}

    def merge_export(self, payload: Mapping[str, Any]) -> None:
        """Fold an :meth:`export` snapshot from a worker in, re-rooted
        under the calling thread's open span."""
        self.tracer.merge(payload["spans"])

    # -- reading (derived views over the trace) --------------------------

    @property
    def stages(self) -> dict[str, StageStats]:
        """Per-stage telemetry, aggregated from the trace's stage spans.

        Keys appear in first-recorded order; seconds and calls sum over
        every closed span of the stage.
        """
        out: dict[str, StageStats] = {}
        for span in self.tracer.spans():
            if span.kind != "stage" or not span.closed:
                continue
            stats = out.setdefault(span.name, StageStats())
            stats.seconds += span.metrics.get("wall_seconds", span.duration)
            stats.calls += int(span.metrics.get("calls", 1.0))
        return out

    def stage_seconds(self) -> dict[str, float]:
        """Per-stage wall seconds, in first-recorded order."""
        return {name: stats.seconds for name, stats in self.stages.items()}

    @property
    def task_seconds(self) -> list[float]:
        """Per-task pipeline seconds, in completion order (derived from
        the trace's task spans)."""
        return [
            span.metrics.get("wall_seconds", span.duration)
            for span in self.tracer.spans()
            if span.kind == "task" and span.closed
        ]

    def counters(self) -> dict[str, int | float]:
        """Run-counter totals: every ``ctr.*`` metric summed over the
        trace (own and merged spans), in first-recorded order.  Integral
        totals read as ``int``."""
        totals: dict[str, float] = {}
        for span in self.tracer.spans():
            for mname, value in span.metrics.items():
                if mname.startswith(_CTR_PREFIX):
                    name = mname[len(_CTR_PREFIX):]
                    totals[name] = totals.get(name, 0.0) + value
        return {
            name: int(value) if value.is_integer() else value
            for name, value in totals.items()
        }

    def counter(self, name: str) -> int:
        """Current value of a run counter (0 if never incremented),
        truncated; read fractional counters from :meth:`counters`."""
        return int(self.counters().get(name, 0))

    def timing_report(self) -> dict[str, Any]:
        """JSON-serializable run telemetry (the ``--json`` CLI payload)."""
        stages = {
            name: {"seconds": stats.seconds, "calls": stats.calls}
            for name, stats in self.stages.items()
        }
        tasks = list(self.task_seconds)
        report: dict[str, Any] = {
            "stages": stages,
            "total_stage_seconds": sum(s["seconds"] for s in stages.values()),
            "n_tasks": len(tasks),
            "task_seconds": tasks,
            "n_spans": len(self.tracer),
        }
        report.update(self.metadata)
        counters = self.counters()
        if counters.get("stage12_elements"):
            counters["stage12_density"] = (
                counters["stage12_nnz"] / counters["stage12_elements"]
            )
        report["counters"] = counters
        return report

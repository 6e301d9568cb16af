"""repro.obs — span-based tracing and metrics for FCMA runs.

The observability layer the paper's evaluation implies: every run
yields one hierarchical trace (run → task → stage → kernel) with typed
metric attachments, recorded by a clock-injectable
:class:`~repro.obs.tracer.Tracer` that every
:class:`~repro.exec.context.RunContext` carries.  Exporters turn a
trace into JSON-lines, a Chrome ``trace_event`` file, or a flat
per-stage metrics table; :mod:`repro.obs.compare` gives the
timing-invariant equality the regression harness asserts.

Quick start::

    from repro.exec import RunContext, make_executor
    from repro.obs import write_jsonl

    ctx = RunContext(config)
    make_executor("serial").run(dataset, ctx)
    write_jsonl(ctx.tracer.spans(), "trace.jsonl")

Deep kernels attach spans through the *ambient* tracer
(:func:`~repro.obs.runtime.kernel_span`), installed automatically while
any span is open — no signatures change.
"""

from __future__ import annotations

from .compare import TIMING_METRICS, assert_same_structure, span_structure
from .export import (
    SCHEMA,
    IncrementalJsonlWriter,
    format_metrics_table,
    from_chrome_trace,
    metrics_table,
    read_jsonl,
    render_tree,
    spans_from_simulation,
    to_chrome_trace,
    write_jsonl,
)
from .metrics import (
    METRICS,
    MetricSpec,
    is_known_metric,
    is_timing_metric,
    validate_metric,
)
from .runtime import current_tracer, kernel_span, use_tracer
from .span import KINDS, Span, SpanNode, build_tree
from .tracer import SpanHandle, Tracer

__all__ = [
    "IncrementalJsonlWriter",
    "KINDS",
    "METRICS",
    "MetricSpec",
    "SCHEMA",
    "Span",
    "SpanHandle",
    "SpanNode",
    "TIMING_METRICS",
    "Tracer",
    "assert_same_structure",
    "build_tree",
    "current_tracer",
    "format_metrics_table",
    "from_chrome_trace",
    "is_known_metric",
    "is_timing_metric",
    "kernel_span",
    "metrics_table",
    "read_jsonl",
    "render_tree",
    "span_structure",
    "spans_from_simulation",
    "to_chrome_trace",
    "use_tracer",
    "validate_metric",
    "write_jsonl",
]

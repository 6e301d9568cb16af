"""Live telemetry plane: in-flight metrics, heartbeats, progress/ETA.

See :mod:`repro.obs.live.runtime` for the aggregate folded from a run's
span stream, :mod:`repro.obs.live.snapshot` for the ``repro.live/v1``
snapshot schema and the periodic publisher, :mod:`repro.obs.live.sinks`
for the JSON-lines / Prometheus / ring outputs, and
:mod:`repro.obs.live.view` for the ``fcma top`` rendering.
"""

from .resources import sample_resources
from .runtime import DEFAULT_BUCKETS, LiveHistogram, LiveRuntime
from .sinks import (
    JsonlSink,
    PrometheusFileSink,
    RingSink,
    Sink,
    render_prometheus,
    sanitize_metric_name,
)
from .snapshot import SNAPSHOT_SCHEMA, SnapshotPublisher, build_snapshot
from .view import read_latest_snapshot, read_snapshots, render_snapshot

__all__ = [
    "DEFAULT_BUCKETS",
    "JsonlSink",
    "LiveHistogram",
    "LiveRuntime",
    "PrometheusFileSink",
    "RingSink",
    "SNAPSHOT_SCHEMA",
    "Sink",
    "SnapshotPublisher",
    "build_snapshot",
    "read_latest_snapshot",
    "read_snapshots",
    "render_snapshot",
    "render_prometheus",
    "sample_resources",
    "sanitize_metric_name",
]

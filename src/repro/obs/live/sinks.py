"""Pluggable snapshot sinks: JSON-lines stream, Prometheus file, ring.

Each sink consumes the same ``repro.live/v1`` snapshot dicts built by
:mod:`repro.obs.live.snapshot`:

* :class:`JsonlSink` appends one line per snapshot and flushes, so a
  tailing consumer (``fcma top --follow``, the future job service) sees
  every snapshot the moment it is published and a crash still leaves a
  valid prefix on disk.
* :class:`PrometheusFileSink` rewrites a text-format exposition file
  atomically (temp file + ``os.replace``) on every snapshot — point a
  node-exporter textfile collector or a plain ``curl``/``cat`` at it.
* :class:`RingSink` keeps the last N snapshots in memory for in-process
  consumers (the CLI's final report embeds the latest one).

Prometheus naming follows the usual conventions: everything is under
the ``fcma_`` namespace, counters get a ``_total`` suffix, histograms
expose cumulative ``_bucket{le="..."}`` series plus ``_sum``/``_count``,
and per-worker series carry a ``rank`` label.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from collections import deque
from pathlib import Path
from typing import Any, Mapping, Protocol

__all__ = [
    "JsonlSink",
    "PrometheusFileSink",
    "RingSink",
    "Sink",
    "render_prometheus",
    "sanitize_metric_name",
]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def sanitize_metric_name(name: str) -> str:
    """Map an internal metric name onto the Prometheus charset."""
    cleaned = _NAME_RE.sub("_", name).strip("_")
    if not cleaned:
        cleaned = "unnamed"
    if cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned.lower()


class Sink(Protocol):
    """Anything that can consume a stream of snapshot dicts."""

    def emit(self, snapshot: Mapping[str, Any]) -> None:
        """Publish one snapshot."""
        ...

    def close(self) -> None:
        """Flush and release resources; no emits after this."""
        ...


class JsonlSink:
    """Append snapshots to a JSON-lines file, flushing per line."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "w", encoding="utf-8")

    def emit(self, snapshot: Mapping[str, Any]) -> None:
        self._fh.write(json.dumps(snapshot, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class RingSink:
    """Keep the most recent snapshots in memory for in-process readers."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self._ring: deque[Mapping[str, Any]] = deque(maxlen=capacity)

    def emit(self, snapshot: Mapping[str, Any]) -> None:
        self._ring.append(snapshot)

    def close(self) -> None:  # noqa: D102 - protocol no-op
        pass

    @property
    def latest(self) -> Mapping[str, Any] | None:
        """The most recently emitted snapshot, if any."""
        return self._ring[-1] if self._ring else None

    def snapshots(self) -> list[Mapping[str, Any]]:
        """All retained snapshots, oldest first."""
        return list(self._ring)


def _fmt(value: float) -> str:
    """Render a sample value the way Prometheus text format expects."""
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def render_prometheus(snapshot: Mapping[str, Any]) -> str:
    """Render one snapshot as Prometheus text exposition format."""
    lines: list[str] = []

    def series(
        name: str, kind: str, help_text: str, samples: list[str]
    ) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(samples)

    series(
        "fcma_snapshot_seq",
        "counter",
        "Sequence number of this telemetry snapshot.",
        [f"fcma_snapshot_seq {_fmt(snapshot['seq'])}"],
    )
    series(
        "fcma_elapsed_seconds",
        "gauge",
        "Wall-clock seconds since the live runtime started.",
        [f"fcma_elapsed_seconds {repr(float(snapshot['elapsed_s']))}"],
    )

    progress = snapshot["progress"]
    series(
        "fcma_progress_fraction",
        "gauge",
        "Overall completed fraction of planned work.",
        [f"fcma_progress_fraction {repr(float(progress['fraction']))}"],
    )
    if progress["eta_s"] is not None:
        series(
            "fcma_eta_seconds",
            "gauge",
            "Estimated seconds until the run completes.",
            [f"fcma_eta_seconds {repr(float(progress['eta_s']))}"],
        )
    kind_samples_done: list[str] = []
    kind_samples_total: list[str] = []
    for kind_name, pair in progress["by_kind"].items():
        label = sanitize_metric_name(kind_name)
        kind_samples_done.append(
            f'fcma_progress_done{{kind="{label}"}} {_fmt(pair["done"])}'
        )
        kind_samples_total.append(
            f'fcma_progress_planned{{kind="{label}"}} {_fmt(pair["total"])}'
        )
    if kind_samples_done:
        series(
            "fcma_progress_done",
            "gauge",
            "Completed work items by kind.",
            kind_samples_done,
        )
        series(
            "fcma_progress_planned",
            "gauge",
            "Planned work items by kind.",
            kind_samples_total,
        )

    for name, value in snapshot["counters"].items():
        metric = f"fcma_{sanitize_metric_name(name)}_total"
        series(metric, "counter", f"Monotonic counter {name}.", [
            f"{metric} {_fmt(value)}"
        ])
    for name, value in snapshot["gauges"].items():
        metric = f"fcma_{sanitize_metric_name(name)}"
        series(metric, "gauge", f"Gauge {name}.", [
            f"{metric} {repr(float(value))}"
        ])

    for name, hist in snapshot["histograms"].items():
        metric = f"fcma_{sanitize_metric_name(name)}"
        samples = []
        for bound, cumulative in hist["buckets"]:
            le = "+Inf" if bound == "+Inf" else repr(float(bound))
            samples.append(
                f'{metric}_bucket{{le="{le}"}} {_fmt(cumulative)}'
            )
        samples.append(f"{metric}_sum {repr(float(hist['sum']))}")
        samples.append(f"{metric}_count {_fmt(hist['count'])}")
        series(metric, "histogram", f"Latency histogram {name}.", samples)

    age_samples: list[str] = []
    completed_samples: list[str] = []
    stale_samples: list[str] = []
    for rank, entry in snapshot["workers"].items():
        age_samples.append(
            f'fcma_worker_heartbeat_age_seconds{{rank="{rank}"}} '
            f"{repr(float(entry['age_s']))}"
        )
        if entry["completed"] is not None:
            completed_samples.append(
                f'fcma_worker_completed{{rank="{rank}"}} '
                f"{_fmt(entry['completed'])}"
            )
        flag = 1 if (entry["stale"] or entry["lost"]) else 0
        stale_samples.append(
            f'fcma_worker_unhealthy{{rank="{rank}"}} {flag}'
        )
    if age_samples:
        series(
            "fcma_worker_heartbeat_age_seconds",
            "gauge",
            "Seconds since each worker rank was last heard from.",
            age_samples,
        )
        series(
            "fcma_worker_unhealthy",
            "gauge",
            "1 when a worker rank is stale or lost, else 0.",
            stale_samples,
        )
    if completed_samples:
        series(
            "fcma_worker_completed",
            "gauge",
            "Work items completed per worker rank (the master's count).",
            completed_samples,
        )

    resources = snapshot.get("resources")
    if resources is not None:
        series(
            "fcma_resident_memory_bytes",
            "gauge",
            "Resident set size of the publishing process.",
            [f"fcma_resident_memory_bytes {_fmt(resources['rss_bytes'])}"],
        )
        series(
            "fcma_cpu_seconds_total",
            "counter",
            "Cumulative CPU seconds of the publishing process.",
            [
                "fcma_cpu_seconds_total "
                f"{repr(float(resources['cpu_seconds']))}"
            ],
        )

    return "\n".join(lines) + "\n"


class PrometheusFileSink:
    """Atomically rewrite a Prometheus text exposition file per snapshot."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def emit(self, snapshot: Mapping[str, Any]) -> None:
        text = render_prometheus(snapshot)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def close(self) -> None:  # noqa: D102 - final exposition stays on disk
        pass

"""Trace exporters and loaders.

Three interchange forms, all lossless for span structure and metrics:

* **JSON-lines** (:func:`write_jsonl` / :func:`read_jsonl`) — the native
  on-disk form: a meta header line then one span record per line, so
  traces stream and concatenate.
* **Chrome ``trace_event``** (:func:`to_chrome_trace` /
  :func:`from_chrome_trace`) — loads in ``chrome://tracing`` / Perfetto;
  span identity and exact float timestamps ride in each event's
  ``args`` so a round trip reproduces the tree exactly.
* **Flat metrics table** (:func:`metrics_table` /
  :func:`format_metrics_table`) — per-(kind, name) metric sums, the
  paper-figure-style per-stage breakdown.

:func:`spans_from_simulation` bridges the discrete-event cluster
simulator: a simulated schedule becomes a span tree (one worker per
``tid``) exportable to the same formats as a measured run — the one view
of a simulated schedule.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence, TextIO

from .span import Span, SpanNode, build_tree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.simulator import SimulationResult, TaskRecord

__all__ = [
    "SCHEMA",
    "IncrementalJsonlWriter",
    "write_jsonl",
    "read_jsonl",
    "to_chrome_trace",
    "from_chrome_trace",
    "metrics_table",
    "format_metrics_table",
    "render_tree",
    "spans_from_simulation",
]

#: Schema tag written into every export; bump on breaking changes.
SCHEMA = "repro.obs/v1"


# -- JSON lines -----------------------------------------------------------


def write_jsonl(
    spans: Iterable[Span], target: str | Path | TextIO
) -> int:
    """Write spans as JSON-lines (meta header + one record per line).

    ``target`` may be a path or an open text stream.  Returns the
    number of span records written.
    """
    records = [span.to_dict() for span in spans]
    header = {"type": "meta", "schema": SCHEMA, "n_spans": len(records)}

    def _emit(fh: TextIO) -> None:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for record in records:
            fh.write(
                json.dumps({"type": "span", **record}, sort_keys=True) + "\n"
            )

    if isinstance(target, (str, Path)):
        with open(target, "w") as fh:
            _emit(fh)
    else:
        _emit(target)
    return len(records)


def read_jsonl(source: str | Path | TextIO) -> list[Span]:
    """Load spans from a JSON-lines export.

    Unknown record types are skipped (forward compatibility); a schema
    mismatch in the meta header raises ``ValueError``.  An undecodable
    *final* line is tolerated — an incrementally appended trace from a
    process that died mid-write still loads as its valid prefix.  A
    decode error anywhere earlier is real corruption and raises.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = source.read()
    lines = text.splitlines()
    spans: list[Span] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if lineno == len(lines):
                break
            raise
        rtype = record.get("type")
        if rtype == "meta":
            if record.get("schema") != SCHEMA:
                raise ValueError(
                    f"line {lineno}: unsupported trace schema "
                    f"{record.get('schema')!r} (expected {SCHEMA!r})"
                )
        elif rtype == "span":
            spans.append(Span.from_dict(record))
    return spans


class IncrementalJsonlWriter:
    """Crash-durable JSON-lines trace writer: append-on-close, flush-per-span.

    Attach :meth:`on_span_close` as a tracer listener
    (``tracer.add_listener(writer.on_span_close)``) and every span is
    appended — and flushed to the OS — the moment it closes, so a run
    killed midway leaves a valid trace prefix on disk instead of
    nothing.  The meta header carries ``"incremental": true`` and no
    span count (the count is unknowable up front); :func:`read_jsonl`
    loads such files unchanged, tolerating a torn final line.

    On a *successful* run the CLI rewrites the file with
    :func:`write_jsonl` (complete, enriched, counted header); this
    writer is purely the crash-safety net underneath.
    """

    def __init__(self, target: str | Path) -> None:
        self.path = Path(target)
        self._lock = threading.Lock()
        self._fh: TextIO | None = open(self.path, "w")
        self._n_spans = 0
        header = {"type": "meta", "schema": SCHEMA, "incremental": True}
        self._fh.write(json.dumps(header, sort_keys=True) + "\n")
        self._fh.flush()

    @property
    def n_spans(self) -> int:
        """Number of span records appended so far."""
        return self._n_spans

    def on_span_close(self, span: Span) -> None:
        """Tracer listener: append one closed span and flush."""
        line = json.dumps({"type": "span", **span.to_dict()}, sort_keys=True)
        with self._lock:
            if self._fh is None:
                return
            self._fh.write(line + "\n")
            self._fh.flush()
            self._n_spans += 1

    def close(self) -> None:
        """Stop accepting spans and close the file (idempotent)."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "IncrementalJsonlWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# -- Chrome trace_event ---------------------------------------------------


def to_chrome_trace(spans: Iterable[Span]) -> dict[str, Any]:
    """Spans as a Chrome ``trace_event`` JSON object.

    Each span becomes one complete (``ph: "X"``) event with
    microsecond timestamps; span ids, parent links, exact float
    start/end seconds, metrics, and attrs travel in ``args`` so
    :func:`from_chrome_trace` rebuilds the identical tree.

    Counter metrics — the ``pc.`` (modeled hardware counters) and
    ``ctr.`` (run counters) namespaces, plus the observatory's
    ``predicted_*`` predictions — are *additionally* flattened to
    top-level ``args`` keys, which is where ``chrome://tracing`` and
    Perfetto surface slice properties; the nested ``metrics`` dict
    stays authoritative for the round trip.
    """
    events: list[dict[str, Any]] = []
    for span in spans:
        t1 = span.t1 if span.t1 is not None else span.t0
        args: dict[str, Any] = {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "t0_s": span.t0,
            "t1_s": span.t1,
            "metrics": dict(span.metrics),
            "attrs": dict(span.attrs),
        }
        for mname, value in span.metrics.items():
            if mname.startswith(("pc.", "ctr.", "predicted_")):
                args[mname] = value
        events.append(
            {
                "name": span.name,
                "cat": span.kind,
                "ph": "X",
                "ts": span.t0 * 1e6,
                "dur": (t1 - span.t0) * 1e6,
                "pid": 0,
                "tid": span.thread,
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": SCHEMA},
    }


def from_chrome_trace(payload: Mapping[str, Any]) -> list[Span]:
    """Rebuild spans from :func:`to_chrome_trace` output.

    Events without ``args.span_id`` (foreign events mixed into the
    file) are ignored.
    """
    spans: list[Span] = []
    for event in payload.get("traceEvents", ()):
        args = event.get("args") or {}
        if event.get("ph") != "X" or "span_id" not in args:
            continue
        t1 = args.get("t1_s")
        spans.append(
            Span(
                span_id=int(args["span_id"]),
                parent_id=(
                    None if args.get("parent_id") is None
                    else int(args["parent_id"])
                ),
                name=str(event["name"]),
                kind=str(event.get("cat", "kernel")),
                t0=float(args.get("t0_s", event["ts"] / 1e6)),
                t1=None if t1 is None else float(t1),
                thread=int(event.get("tid", 0)),
                metrics={
                    str(k): float(v)
                    for k, v in dict(args.get("metrics", {})).items()
                },
                attrs=dict(args.get("attrs", {})),
            )
        )
    spans.sort(key=lambda s: s.span_id)
    return spans


# -- flat metrics table ---------------------------------------------------


def metrics_table(spans: Iterable[Span]) -> list[dict[str, Any]]:
    """Per-(kind, name) metric sums as flat rows.

    Rows are ordered by first appearance; every metric seen anywhere in
    the group is summed (missing = 0).  This is the paper's per-stage
    breakdown view of a trace.
    """
    rows: dict[tuple[str, str], dict[str, Any]] = {}
    for span in spans:
        key = (span.kind, span.name)
        row = rows.setdefault(
            key, {"kind": span.kind, "name": span.name, "spans": 0}
        )
        row["spans"] += 1
        metrics = span.metrics if span.metrics else {"calls": 1.0}
        for mname, value in metrics.items():
            row[mname] = row.get(mname, 0.0) + value
    return list(rows.values())


def format_metrics_table(rows: list[dict[str, Any]]) -> str:
    """Render :func:`metrics_table` rows as an aligned text table."""
    if not rows:
        return "(empty trace)"
    metric_names = sorted(
        {k for row in rows for k in row if k not in ("kind", "name", "spans")}
    )
    headers = ["kind", "name", "spans", *metric_names]
    table = [headers]
    for row in rows:
        table.append(
            [
                str(row["kind"]),
                str(row["name"]),
                str(row["spans"]),
                *(f"{row.get(m, 0.0):.6g}" for m in metric_names),
            ]
        )
    widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
        for line in table
    ]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render_tree(spans: Iterable[Span], max_depth: int | None = None) -> str:
    """Human-readable indented tree of a trace (the CLI summary view)."""
    roots = build_tree(spans)
    if not roots:
        return "(empty trace)"
    lines: list[str] = []

    def _walk(node: SpanNode, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        span = node.span
        wall = span.metrics.get("wall_seconds", span.duration)
        extra = ", ".join(
            f"{k}={v:.6g}"
            for k, v in sorted(span.metrics.items())
            if k not in ("wall_seconds", "calls")
        )
        suffix = f"  [{extra}]" if extra else ""
        lines.append(
            f"{'  ' * depth}{span.kind}:{span.name}  "
            f"{wall * 1e3:.3f} ms{suffix}"
        )
        for child in node.children:
            _walk(child, depth + 1)

    for root in roots:
        _walk(root, 0)
    return "\n".join(lines)


# -- cluster-simulator bridge ---------------------------------------------


def spans_from_simulation(
    result: "SimulationResult", records: Sequence["TaskRecord"]
) -> list[Span]:
    """A simulated schedule as a span tree.

    ``result`` and ``records`` are what
    :func:`repro.cluster.simulator.simulate_records` returns.  The run
    span covers the whole simulated makespan; the one-time data
    distribution becomes a kernel span; each task record becomes a task
    span on its worker's ``tid``, moved from its fold's clock to the
    run's (the distribution, then each fold after the last), with its
    queue/compute split carried as attributes.  Timestamps are
    *simulated* seconds — the Chrome export is the schedule's Gantt
    chart.
    """
    fold_start = [result.distribution_seconds]
    for seconds in result.fold_seconds:
        fold_start.append(fold_start[-1] + float(seconds))
    spans: list[Span] = [
        Span(
            span_id=0,
            name="simulated-run",
            kind="run",
            t0=0.0,
            t1=result.elapsed_seconds,
            metrics={
                "wall_seconds": result.elapsed_seconds,
                "tasks": float(len(records)),
                "calls": 1.0,
            },
            attrs={"n_workers": result.n_workers, "simulated": True},
        ),
        Span(
            span_id=1,
            name="distribute-data",
            kind="kernel",
            t0=0.0,
            t1=result.distribution_seconds,
            parent_id=0,
            metrics={
                "wall_seconds": result.distribution_seconds,
                "calls": 1.0,
            },
        ),
    ]
    for span_id, record in enumerate(records, start=2):
        offset = fold_start[record.fold]
        spans.append(
            Span(
                span_id=span_id,
                name=f"fold{record.fold}-task{record.task_index}",
                kind="task",
                t0=offset + record.handout_start_s,
                t1=offset + record.finish_s,
                parent_id=0,
                thread=record.worker,
                metrics={
                    "wall_seconds": record.finish_s - record.handout_start_s,
                    "calls": 1.0,
                },
                attrs={
                    "worker": record.worker,
                    "fold": record.fold,
                    "queue_seconds": record.queue_seconds,
                    "compute_seconds": record.compute_seconds,
                },
            )
        )
    return spans

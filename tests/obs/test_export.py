"""Exporter round-trips: JSON-lines, Chrome trace_event, tables."""

from __future__ import annotations

import io
import json

import pytest

from repro.cluster import ClusterConfig, simulate_records
from repro.cluster.workload import FoldSpec, TaskSpec, Workload
from repro.obs import (
    SCHEMA,
    assert_same_structure,
    format_metrics_table,
    from_chrome_trace,
    metrics_table,
    read_jsonl,
    render_tree,
    spans_from_simulation,
    to_chrome_trace,
    write_jsonl,
)
from repro.obs.span import Span


@pytest.fixture()
def trace_spans(tracer):
    with tracer.span("run", kind="run", attrs={"executor": "serial"}):
        with tracer.span("task", kind="task") as task:
            task.add_metric("voxels", 40.0)
            with tracer.span("score", kind="stage"):
                with tracer.span("smo.solve", kind="kernel") as k:
                    k.add_metric("iterations", 17.0)
    return tracer.spans()


class TestJsonl:
    def test_file_round_trip(self, trace_spans, tmp_path):
        path = tmp_path / "trace.jsonl"
        n = write_jsonl(trace_spans, path)
        assert n == len(trace_spans)
        loaded = read_jsonl(path)
        assert loaded == trace_spans

    def test_stream_round_trip(self, trace_spans):
        buf = io.StringIO()
        write_jsonl(trace_spans, buf)
        assert read_jsonl(io.StringIO(buf.getvalue())) == trace_spans

    def test_meta_header_carries_schema(self, trace_spans):
        buf = io.StringIO()
        write_jsonl(trace_spans, buf)
        header = json.loads(buf.getvalue().splitlines()[0])
        assert header == {
            "type": "meta", "schema": SCHEMA, "n_spans": len(trace_spans),
        }

    def test_schema_mismatch_raises(self):
        bad = json.dumps({"type": "meta", "schema": "repro.obs/v999"})
        with pytest.raises(ValueError, match="unsupported trace schema"):
            read_jsonl(io.StringIO(bad + "\n"))

    def test_unknown_record_types_skipped(self, trace_spans):
        buf = io.StringIO()
        write_jsonl(trace_spans, buf)
        extended = buf.getvalue() + json.dumps({"type": "future"}) + "\n"
        assert read_jsonl(io.StringIO(extended)) == trace_spans

    def test_concatenated_traces_stream(self, trace_spans):
        buf = io.StringIO()
        write_jsonl(trace_spans, buf)
        write_jsonl(trace_spans, buf)
        assert len(read_jsonl(io.StringIO(buf.getvalue()))) == 2 * len(
            trace_spans
        )


class TestChromeTrace:
    def test_round_trip_reproduces_tree_exactly(self, trace_spans):
        payload = to_chrome_trace(trace_spans)
        rebuilt = from_chrome_trace(payload)
        assert rebuilt == trace_spans
        # Structure comparison (the regression-harness form) also holds.
        assert_same_structure(trace_spans, rebuilt)

    def test_json_serializable(self, trace_spans):
        text = json.dumps(to_chrome_trace(trace_spans))
        assert from_chrome_trace(json.loads(text)) == trace_spans

    def test_event_shape(self, trace_spans):
        events = to_chrome_trace(trace_spans)["traceEvents"]
        assert len(events) == len(trace_spans)
        for event, span in zip(events, trace_spans):
            assert event["ph"] == "X"
            assert event["cat"] == span.kind
            assert event["ts"] == span.t0 * 1e6
            assert event["args"]["span_id"] == span.span_id

    def test_foreign_events_ignored(self, trace_spans):
        payload = to_chrome_trace(trace_spans)
        payload["traceEvents"].append(
            {"name": "M", "ph": "M", "ts": 0, "args": {}}
        )
        assert from_chrome_trace(payload) == trace_spans


class TestChromeCounterArgs:
    """Counter metrics surface as top-level args (Perfetto slice props)."""

    @pytest.fixture()
    def enriched_span(self):
        return Span(
            span_id=0, name="score_voxels", kind="kernel", t0=0.0, t1=1.0,
            metrics={
                "wall_seconds": 1.0,
                "pc.l2_misses": 1e6,
                "ctr.tasks": 2.0,
                "predicted_seconds": 0.5,
                "predicted_gflops": 40.0,
            },
        )

    def test_counter_namespaces_flattened(self, enriched_span):
        (event,) = to_chrome_trace([enriched_span])["traceEvents"]
        args = event["args"]
        assert args["pc.l2_misses"] == 1e6
        assert args["ctr.tasks"] == 2.0
        assert args["predicted_seconds"] == 0.5
        assert args["predicted_gflops"] == 40.0

    def test_plain_metrics_stay_nested_only(self, enriched_span):
        (event,) = to_chrome_trace([enriched_span])["traceEvents"]
        assert "wall_seconds" not in event["args"]
        assert event["args"]["metrics"]["wall_seconds"] == 1.0

    def test_flattening_keeps_round_trip_lossless(self, enriched_span):
        payload = json.loads(json.dumps(to_chrome_trace([enriched_span])))
        assert from_chrome_trace(payload) == [enriched_span]


class TestMetricsTable:
    def test_sums_per_kind_and_name(self, tracer):
        for voxels in (3.0, 5.0):
            with tracer.span("t", kind="task") as span:
                span.add_metric("voxels", voxels)
        (row,) = metrics_table(tracer.spans())
        assert row["kind"] == "task" and row["name"] == "t"
        assert row["spans"] == 2
        assert row["voxels"] == 8.0
        assert row["calls"] == 2.0

    def test_format_renders_all_rows(self, trace_spans):
        text = format_metrics_table(metrics_table(trace_spans))
        for token in ("run", "smo.solve", "iterations", "voxels"):
            assert token in text

    def test_empty_trace(self):
        assert format_metrics_table(metrics_table([])) == "(empty trace)"


class TestRenderTree:
    def test_indentation_follows_depth(self, trace_spans):
        lines = render_tree(trace_spans).splitlines()
        assert lines[0].startswith("run:run")
        assert lines[1].startswith("  task:task")
        assert lines[3].startswith("      kernel:smo.solve")
        assert "iterations=17" in lines[3]

    def test_max_depth_clips(self, trace_spans):
        lines = render_tree(trace_spans, max_depth=1).splitlines()
        assert len(lines) == 2


class TestClusterBridge:
    @pytest.fixture()
    def schedule(self):
        workload = Workload(
            name="w",
            dataset_bytes=1_000_000,
            folds=(
                FoldSpec(tasks=tuple(TaskSpec(0.5) for _ in range(6))),
            ),
        )
        return simulate_records(workload, ClusterConfig(n_workers=2))

    def test_schedule_becomes_span_tree(self, schedule):
        spans = spans_from_simulation(*schedule)
        run = spans[0]
        assert run.kind == "run" and run.attrs["simulated"] is True
        assert run.metrics["tasks"] == 6.0
        assert run.t1 == schedule[0].elapsed_seconds
        assert spans[1].name == "distribute-data"
        tasks = [s for s in spans if s.kind == "task"]
        assert len(tasks) == 6
        assert all(s.parent_id == 0 for s in tasks)
        assert {s.thread for s in tasks} == {0, 1}

    def test_exports_like_a_measured_trace(self, schedule, tmp_path):
        spans = spans_from_simulation(*schedule)
        path = tmp_path / "sim.jsonl"
        write_jsonl(spans, path)
        assert read_jsonl(path) == spans
        assert from_chrome_trace(to_chrome_trace(spans)) == spans

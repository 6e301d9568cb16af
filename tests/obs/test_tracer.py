"""Tracer unit tests on a deterministic fake clock."""

from __future__ import annotations

import threading

import pytest

from repro.obs import (
    KINDS,
    Span,
    Tracer,
    build_tree,
    current_tracer,
    kernel_span,
    use_tracer,
    validate_metric,
)

from .conftest import FakeClock


class TestSpanBasics:
    def test_rejects_unknown_kind_and_empty_name(self):
        with pytest.raises(ValueError, match="unknown span kind"):
            Span(span_id=0, name="x", kind="mystery", t0=0.0)
        with pytest.raises(ValueError, match="non-empty"):
            Span(span_id=0, name="", kind="stage", t0=0.0)

    def test_duration_and_closed(self):
        span = Span(span_id=0, name="x", kind="stage", t0=1.0)
        assert not span.closed and span.duration == 0.0
        span.t1 = 3.5
        assert span.closed and span.duration == 2.5

    def test_add_metric_is_additive_and_validated(self):
        span = Span(span_id=0, name="x", kind="kernel", t0=0.0)
        span.add_metric("voxels", 3)
        span.add_metric("voxels", 4)
        assert span.metrics["voxels"] == 7.0
        with pytest.raises(ValueError, match="unknown metric"):
            span.add_metric("typo_metric", 1.0)
        with pytest.raises(ValueError, match="finite"):
            span.add_metric("voxels", float("nan"))

    def test_open_namespaces_accepted(self):
        assert validate_metric("pc.flops", 2) == 2.0
        assert validate_metric("ctr.stage12_tiles", 1) == 1.0

    def test_dict_round_trip(self):
        span = Span(
            span_id=3, name="k", kind="kernel", t0=1.0, t1=2.0,
            parent_id=1, thread=7, metrics={"voxels": 2.0},
            attrs={"first_voxel": 0},
        )
        assert Span.from_dict(span.to_dict()) == span


class TestNesting:
    def test_parent_links_follow_with_nesting(self, tracer):
        with tracer.span("run", kind="run"):
            with tracer.span("task", kind="task"):
                with tracer.span("correlate", kind="stage"):
                    pass
                with tracer.span("score", kind="stage"):
                    pass
            with tracer.span("task", kind="task"):
                pass
        spans = tracer.spans()
        by_name_order = [(s.name, s.parent_id) for s in spans]
        assert by_name_order == [
            ("run", None),
            ("task", 0),
            ("correlate", 1),
            ("score", 1),
            ("task", 0),
        ]
        roots = build_tree(spans)
        assert len(roots) == 1
        assert [n.span.name for n in roots[0].walk()] == [
            "run", "task", "correlate", "score", "task",
        ]

    def test_fake_clock_gives_exact_times(self, tracer):
        # Clock reads: open run (0), open stage (1), close stage (2),
        # close run (3).
        with tracer.span("run", kind="run"):
            with tracer.span("s", kind="stage"):
                pass
        run, stage = tracer.spans()
        assert (run.t0, run.t1) == (0.0, 3.0)
        assert (stage.t0, stage.t1) == (1.0, 2.0)
        assert stage.metrics["wall_seconds"] == 1.0
        assert run.metrics["wall_seconds"] == 3.0

    def test_wall_seconds_not_overwritten_when_preset(self, tracer):
        with tracer.span("s", kind="stage") as span:
            span.set_metric("wall_seconds", 42.0)
        assert tracer.spans()[0].metrics["wall_seconds"] == 42.0

    def test_current_and_open_kinds(self, tracer):
        assert tracer.current() is None
        with tracer.span("run", kind="run") as run:
            assert tracer.current() is run
            assert tracer.open_kinds() == {"run"}
            with tracer.span("t", kind="task") as task:
                assert tracer.current() is task
                assert tracer.open_kinds() == {"run", "task"}
        assert tracer.current() is None


class TestRecordAndMetrics:
    def test_record_appends_zero_width_span(self, tracer):
        span = tracer.record("preprocess", kind="stage", seconds=2.5)
        assert span is not None and span.t0 == span.t1
        assert span.metrics == {"wall_seconds": 2.5, "calls": 1.0}

    def test_record_nests_under_open_span(self, tracer):
        with tracer.span("run", kind="run") as run:
            child = tracer.record("ext", kind="stage", seconds=1.0)
        assert child.parent_id == run.span_id

    def test_record_rejects_negative_seconds(self, tracer):
        with pytest.raises(ValueError, match=">= 0"):
            tracer.record("x", seconds=-1.0)

    def test_record_metric_override(self, tracer):
        span = tracer.record(
            "s", kind="stage", seconds=1.0, metrics={"calls": 3.0}
        )
        assert span.metrics["calls"] == 3.0

    def test_add_metric_lands_on_innermost(self, tracer):
        assert not tracer.add_metric("voxels", 1.0)  # nothing open
        with tracer.span("run", kind="run"):
            with tracer.span("t", kind="task") as task:
                assert tracer.add_metric("voxels", 4.0)
            assert task.metrics["voxels"] == 4.0

    def test_aggregate_sums_by_name(self, tracer):
        for voxels in (3.0, 5.0):
            with tracer.span("t", kind="task") as span:
                span.add_metric("voxels", voxels)
        agg = tracer.aggregate(kind="task")
        assert agg["t"]["voxels"] == 8.0
        assert agg["t"]["calls"] == 2.0


class TestDisabledTracer:
    def test_records_nothing_but_still_times(self, clock):
        tracer = Tracer(clock=clock, enabled=False)
        with tracer.span("s", kind="stage") as span:
            span.add_metric("voxels", 1.0)  # must not raise
        assert span.duration == 1.0
        assert len(tracer) == 0
        assert tracer.record("x", seconds=1.0) is None
        assert not tracer.add_metric("voxels", 1.0)

    def test_does_not_install_ambient(self, clock):
        tracer = Tracer(clock=clock, enabled=False)
        with tracer.span("s", kind="stage"):
            assert current_tracer() is None


class TestAmbientTracer:
    def test_span_installs_ambient(self, tracer):
        assert current_tracer() is None
        with tracer.span("run", kind="run"):
            assert current_tracer() is tracer
        assert current_tracer() is None

    def test_kernel_span_attaches_to_ambient(self, tracer):
        with tracer.span("run", kind="run") as run:
            with kernel_span("gemm") as span:
                assert span is not None
                span.add_metric("bytes_moved", 64.0)
        gemm = tracer.spans()[1]
        assert gemm.kind == "kernel" and gemm.parent_id == run.span_id
        assert gemm.metrics["bytes_moved"] == 64.0

    def test_kernel_span_noops_without_tracer(self):
        with kernel_span("gemm") as span:
            assert span is None

    def test_use_tracer_explicit_install(self, tracer):
        with use_tracer(tracer):
            with kernel_span("gemm"):
                pass
        assert [s.name for s in tracer.spans()] == ["gemm"]


class TestMerge:
    def test_merge_reroots_foreign_trace_under_open_span(self, tracer):
        worker = Tracer(clock=FakeClock(start=100.0))
        with worker.span("task", kind="task"):
            with worker.span("score", kind="stage"):
                pass
        with tracer.span("run", kind="run") as run:
            merged = tracer.merge(worker.export())
        assert merged == 2
        spans = {s.name: s for s in tracer.spans()}
        assert spans["task"].parent_id == run.span_id
        assert spans["score"].parent_id == spans["task"].span_id

    def test_merge_without_anchor_keeps_roots(self, tracer):
        worker = Tracer(clock=FakeClock())
        with worker.span("task", kind="task"):
            pass
        tracer.merge(worker)
        assert tracer.spans()[0].parent_id is None

    def test_merge_reassigns_ids_without_collisions(self, tracer):
        a, b = Tracer(clock=FakeClock()), Tracer(clock=FakeClock())
        for t in (a, b):
            with t.span("task", kind="task"):
                pass
        tracer.merge(a)
        tracer.merge(b)
        ids = [s.span_id for s in tracer.spans()]
        assert len(ids) == len(set(ids)) == 2

    def test_merged_metrics_survive(self, tracer):
        worker = Tracer(clock=FakeClock())
        with worker.span("task", kind="task") as span:
            span.add_metric("voxels", 9.0)
        tracer.merge(worker)
        assert tracer.spans()[0].metrics["voxels"] == 9.0


class TestThreadSafety:
    def test_concurrent_spans_stay_wellformed(self):
        tracer = Tracer()
        n_threads, per_thread = 8, 50
        barrier = threading.Barrier(n_threads)

        def work(rank: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                with tracer.span(f"t{rank}", kind="task") as span:
                    span.add_metric("voxels", 1.0)
                    with tracer.span("inner", kind="stage"):
                        pass

        threads = [
            threading.Thread(target=work, args=(r,)) for r in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = tracer.spans()
        assert len(spans) == n_threads * per_thread * 2
        ids = [s.span_id for s in spans]
        assert len(set(ids)) == len(ids)
        # Every inner span's parent is a task from the same thread.
        by_id = {s.span_id: s for s in spans}
        for s in spans:
            if s.name == "inner":
                parent = by_id[s.parent_id]
                assert parent.kind == "task"
                assert parent.thread == s.thread


def test_kinds_vocabulary_is_stable():
    assert KINDS == ("run", "task", "stage", "kernel", "counter", "event")

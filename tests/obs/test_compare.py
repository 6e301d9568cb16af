"""Structural trace comparison: equality modulo timing and environment."""

from __future__ import annotations

import pytest

from repro.obs import (
    TIMING_METRICS,
    Tracer,
    assert_same_structure,
    span_structure,
)

from .conftest import FakeClock


def _trace(step: float, executor: str = "serial", voxels: float = 40.0):
    """A small run trace; only timing and env attrs vary with args."""
    tracer = Tracer(clock=FakeClock(step=step))
    with tracer.span("run", kind="run", attrs={"executor": executor}):
        with tracer.span("task", kind="task") as task:
            task.add_metric("voxels", voxels)
            with tracer.span("score", kind="stage"):
                pass
    return tracer.spans()


class TestStructure:
    def test_timing_and_environment_ignored(self):
        a = _trace(step=1.0, executor="serial")
        b = _trace(step=0.001, executor="master-worker")
        assert span_structure(a) == span_structure(b)
        assert_same_structure(a, b)

    def test_nontiming_metric_difference_detected(self):
        a = _trace(step=1.0, voxels=40.0)
        b = _trace(step=1.0, voxels=41.0)
        assert span_structure(a) != span_structure(b)
        with pytest.raises(AssertionError, match="trace structures differ"):
            assert_same_structure(a, b)

    def test_shape_difference_detected(self):
        a = _trace(step=1.0)
        b = _trace(step=1.0)[:-1]  # drop the stage span
        with pytest.raises(AssertionError):
            assert_same_structure(a, b)

    def test_sibling_order_does_not_matter(self):
        def siblings(order):
            tracer = Tracer(clock=FakeClock())
            with tracer.span("run", kind="run"):
                for name in order:
                    with tracer.span(name, kind="stage"):
                        pass
            return tracer.spans()

        assert span_structure(siblings(["a", "b"])) == span_structure(
            siblings(["b", "a"])
        )

    def test_extra_ignore_metrics(self):
        a = _trace(step=1.0, voxels=40.0)
        b = _trace(step=1.0, voxels=41.0)
        assert_same_structure(
            a, b, ignore_metrics=set(TIMING_METRICS) | {"voxels"}
        )

    def test_timing_metrics_derived_from_registry(self):
        assert "wall_seconds" in TIMING_METRICS
        assert "voxels" not in TIMING_METRICS


class TestOverlapCountersAreTiming:
    """The prefetch-overlap instrumentation's counters are pure wall
    clock; registering them as timing metrics keeps cross-executor
    trace equivalence blind to them."""

    def test_registered_as_timing(self):
        from repro.obs import is_timing_metric

        assert is_timing_metric("comm.fetch_wait")
        assert is_timing_metric("ctr.overlap_hidden_seconds")
        assert {"comm.fetch_wait", "ctr.overlap_hidden_seconds"} <= set(
            TIMING_METRICS
        )

    def test_other_ctr_metrics_stay_structural(self):
        from repro.obs import is_timing_metric

        assert not is_timing_metric("ctr.stage12_tiles")

    def test_traces_differing_only_in_overlap_counters_compare_equal(self):
        def overlap_trace(wait: float, hidden: float):
            tracer = Tracer(clock=FakeClock())
            with tracer.span("run", kind="run"):
                with tracer.span("fetch", kind="stage") as stage:
                    stage.add_metric("comm.fetch_wait", wait)
                    stage.add_metric("ctr.overlap_hidden_seconds", hidden)
            return tracer.spans()

        assert_same_structure(
            overlap_trace(0.5, 0.1), overlap_trace(0.01, 0.9)
        )

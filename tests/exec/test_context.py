"""RunContext: the shared telemetry carrier of every execution path."""

from __future__ import annotations

import pickle
import time

import numpy as np
import pytest

from repro.core import FCMAConfig
from repro.exec.context import RunContext
from repro.obs.tracer import Tracer


class TestConstruction:
    def test_default_config_is_fcma_default(self):
        ctx = RunContext()
        assert ctx.config == FCMAConfig()

    def test_carries_given_config(self):
        config = FCMAConfig(task_voxels=7)
        assert RunContext(config).config is config

    def test_rng_is_seed_deterministic(self):
        a = RunContext(seed=42).rng().random(4)
        b = RunContext(seed=42).rng().random(4)
        np.testing.assert_array_equal(a, b)

    def test_unseeded_rng_defaults_to_zero(self):
        np.testing.assert_array_equal(
            RunContext().rng().random(4),
            np.random.default_rng(0).random(4),
        )


class TestTiming:
    def test_timer_accumulates_and_counts_calls(self):
        ctx = RunContext()
        for _ in range(3):
            with ctx.timer("stage-a"):
                time.sleep(0.001)
        stats = ctx.stages["stage-a"]
        assert stats.calls == 3
        assert stats.seconds >= 0.003

    def test_timer_handle_reports_single_call_seconds(self):
        ctx = RunContext()
        with ctx.timer("x") as t:
            time.sleep(0.002)
        assert 0 < t.seconds <= ctx.stages["x"].seconds

    def test_timer_charges_on_exception(self):
        ctx = RunContext()
        with pytest.raises(RuntimeError):
            with ctx.timer("boom"):
                raise RuntimeError("oops")
        assert ctx.stages["boom"].calls == 1

    def test_add_time_rejects_negative(self):
        with pytest.raises(ValueError):
            RunContext().add_time("s", -0.1)

    def test_task_spans_build_the_stream(self):
        ctx = RunContext()
        for first_voxel in (0, 4):
            with ctx.task_span(4, first_voxel):
                pass
        assert len(ctx.task_seconds) == 2
        assert all(seconds >= 0 for seconds in ctx.task_seconds)


def _task(ctx: RunContext, seconds: float) -> None:
    """An externally measured task, straight onto the trace."""
    ctx.tracer.record("task", kind="task", seconds=seconds)


class TestMergeAndExport:
    def test_merge_folds_stages_and_tasks(self):
        a, b = RunContext(), RunContext()
        a.add_time("s", 1.0)
        _task(a, 1.0)
        b.add_time("s", 2.0)
        b.add_time("t", 0.5)
        _task(b, 2.0)
        a.merge(b)
        assert a.stages["s"].seconds == pytest.approx(3.0)
        assert a.stages["s"].calls == 2
        assert a.stages["t"].seconds == pytest.approx(0.5)
        assert a.task_seconds == [1.0, 2.0]

    def test_export_roundtrips_through_pickle(self):
        ctx = RunContext()
        ctx.add_time("correlate", 1.5, calls=3)
        _task(ctx, 0.5)
        payload = pickle.loads(pickle.dumps(ctx.export()))
        # Spans are the whole payload: every summary is derived from them.
        assert set(payload) == {"spans"}
        home = RunContext()
        home.merge_export(payload)
        assert home.stages["correlate"].seconds == pytest.approx(1.5)
        assert home.stages["correlate"].calls == 3
        assert home.task_seconds == [0.5]


class TestTimingReport:
    def test_report_is_json_shaped_and_carries_metadata(self):
        import json

        ctx = RunContext()
        ctx.add_time("score", 2.0)
        _task(ctx, 2.0)
        ctx.metadata["executor"] = "serial"
        report = ctx.timing_report()
        assert report["stages"]["score"]["seconds"] == pytest.approx(2.0)
        assert report["total_stage_seconds"] == pytest.approx(2.0)
        assert report["n_tasks"] == 1
        assert report["executor"] == "serial"
        json.dumps(report)  # must be serializable as-is


class TestRunCounters:
    def test_increment_and_read(self):
        ctx = RunContext()
        assert ctx.counter("stage12_tiles") == 0
        ctx.increment("stage12_tiles")
        ctx.increment("stage12_tiles", 4)
        assert ctx.counter("stage12_tiles") == 5
        assert ctx.counters() == {"stage12_tiles": 5}

    def test_one_write_path(self):
        """The ``ctr.*`` span metric is the only copy: nothing lands in
        ``metadata`` until an executor stores the finished total."""
        ctx = RunContext()
        with ctx.timer("correlate+normalize"):
            ctx.increment("stage12_tiles", 3)
        (span,) = ctx.tracer.spans()
        assert span.metrics["ctr.stage12_tiles"] == 3.0
        assert "counters" not in ctx.metadata

    def test_integral_totals_read_as_int_fractional_as_float(self):
        ctx = RunContext()
        ctx.increment("stage12_nnz", 2)
        ctx.increment("stage12_density", 0.25)
        ctx.increment("stage12_density", 0.5)
        totals = ctx.counters()
        assert totals == {"stage12_nnz": 2, "stage12_density": 0.75}
        assert isinstance(totals["stage12_nnz"], int)
        assert ctx.counter("stage12_density") == 0

    def test_counters_survive_pickled_export_roundtrip(self):
        ctx = RunContext()
        ctx.increment("stage12_tiles", 2)
        ctx.increment("stage12_nnz", 1)
        ctx.add_time("correlate+normalize", 0.5)
        payload = pickle.loads(pickle.dumps(ctx.export()))
        home = RunContext()
        home.increment("stage12_tiles", 3)
        home.merge_export(payload)
        assert home.counters() == {"stage12_tiles": 5, "stage12_nnz": 1}
        assert home.stages["correlate+normalize"].seconds == 0.5

    def test_merge_sums_counters(self):
        a, b = RunContext(), RunContext()
        a.increment("stage12_tiles", 7)
        b.increment("stage12_tiles", 5)
        b.increment("emitter_dense_runs")
        a.merge(b)
        assert a.counter("stage12_tiles") == 12
        assert a.counter("emitter_dense_runs") == 1

    def test_counters_reach_timing_report(self):
        ctx = RunContext()
        ctx.increment("stage12_tiles", 3)
        report = ctx.timing_report()
        assert report["counters"] == {"stage12_tiles": 3}

    def test_disabled_tracer_counts_nothing(self):
        ctx = RunContext(tracer=Tracer(enabled=False))
        ctx.increment("stage12_tiles", 3)
        assert ctx.counters() == {}

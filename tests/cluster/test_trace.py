"""Tests for cluster execution traces."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, FoldSpec, NetworkModel, TaskSpec, Workload, simulate
from repro.cluster.trace import render_gantt, simulate_with_trace

FAST_NET = NetworkModel(latency_s=0.0, bandwidth_bytes_per_s=1e15)


def workload(n_tasks=16, task_s=1.0, folds=1):
    fold = FoldSpec(tasks=tuple(TaskSpec(task_s) for _ in range(n_tasks)))
    return Workload(name="t", dataset_bytes=0, folds=tuple(fold for _ in range(folds)))


def config(n=4, **kw):
    kw.setdefault("network", FAST_NET)
    kw.setdefault("master_overhead_s", 0.0)
    return ClusterConfig(n_workers=n, **kw)


class TestTraceConsistency:
    def test_elapsed_matches_simulate(self):
        w = workload(17, 0.7, folds=2)
        for cfg in (config(4), config(4, heterogeneity=0.2, seed=5),
                    config(3, schedule="static")):
            trace = simulate_with_trace(w, cfg)
            plain = simulate(w, cfg)
            assert trace.elapsed_seconds == pytest.approx(plain.elapsed_seconds)

    def test_elapsed_is_simulates_by_construction(self):
        """The trace keeps the records ``simulate`` aggregates: equal to
        the bit, with the records on the run's clock."""
        w = workload(17, 0.7, folds=3)
        for cfg in (config(4, heterogeneity=0.2, seed=5),
                    config(3, schedule="static", master_overhead_s=1e-3)):
            trace = simulate_with_trace(w, cfg)
            plain = simulate(w, cfg)
            assert trace.elapsed_seconds == plain.elapsed_seconds
            assert trace.distribution_seconds == plain.distribution_seconds
            last = max(r.finish_s for r in trace.records)
            assert last == pytest.approx(plain.elapsed_seconds)
            fold_1 = [r for r in trace.records if r.fold == 1]
            assert min(r.handout_start_s for r in fold_1) == pytest.approx(
                plain.distribution_seconds + plain.fold_seconds[0]
            )

    def test_all_tasks_recorded(self):
        trace = simulate_with_trace(workload(10, 1.0, folds=3), config(4))
        assert len(trace.records) == 30
        folds = {r.fold for r in trace.records}
        assert folds == {0, 1, 2}

    def test_records_time_ordered_per_worker(self):
        trace = simulate_with_trace(workload(20, 1.0), config(4))
        for w in range(4):
            mine = sorted(
                (r for r in trace.records if r.worker == w),
                key=lambda r: r.compute_start_s,
            )
            for a, b in zip(mine, mine[1:]):
                assert a.finish_s <= b.compute_start_s + 1e-12

    def test_compute_seconds_positive(self):
        trace = simulate_with_trace(workload(8, 0.5), config(2))
        for r in trace.records:
            assert r.compute_seconds == pytest.approx(0.5)
            assert r.queue_seconds >= 0.0


class TestDerivedStats:
    def test_balanced_load_on_uniform_tasks(self):
        trace = simulate_with_trace(workload(16, 1.0), config(4))
        np.testing.assert_array_equal(trace.tasks_per_worker(), [4, 4, 4, 4])
        np.testing.assert_allclose(trace.worker_busy_seconds(), 4.0)
        np.testing.assert_allclose(trace.worker_idle_fraction(), 0.0, atol=1e-9)

    def test_idle_fraction_on_last_wave(self):
        trace = simulate_with_trace(workload(5, 1.0), config(4))
        idle = trace.worker_idle_fraction()
        # one worker did 2 tasks (busy both units), three idled half
        assert idle.min() == pytest.approx(0.0, abs=1e-9)
        assert (idle > 0.4).sum() == 3

    def test_tail_seconds_nonzero_on_imbalance(self):
        trace = simulate_with_trace(workload(5, 1.0), config(4))
        assert trace.tail_seconds() == pytest.approx(1.0)

    def test_tail_zero_on_perfect_division(self):
        trace = simulate_with_trace(workload(8, 1.0), config(4))
        assert trace.tail_seconds() == pytest.approx(0.0, abs=1e-9)


class TestGantt:
    def test_render_shape(self):
        trace = simulate_with_trace(workload(8, 1.0), config(4))
        text = render_gantt(trace, width=40)
        lines = text.splitlines()
        assert len(lines) == 5  # header + 4 workers
        assert all(len(l.split("|")[1]) == 40 for l in lines[1:])

    def test_busy_workers_marked(self):
        trace = simulate_with_trace(workload(8, 1.0), config(4))
        text = render_gantt(trace, width=40)
        for line in text.splitlines()[1:]:
            assert "#" in line

    def test_width_validation(self):
        trace = simulate_with_trace(workload(2, 1.0), config(2))
        with pytest.raises(ValueError):
            render_gantt(trace, width=3)

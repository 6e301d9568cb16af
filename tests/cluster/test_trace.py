"""Traces of simulated cluster runs: the schedule's one view.

``simulate_records`` keeps every task's record; ``spans_from_simulation``
turns them into the span tree ``fcma trace`` renders (tree / table /
chrome).  These tests read the schedule the way a reader of that view
does: task spans per worker lane, their times and their compute split.
"""

from collections import Counter

import pytest

from repro.cluster import (
    ClusterConfig,
    FoldSpec,
    NetworkModel,
    TaskSpec,
    Workload,
    simulate,
    simulate_records,
)
from repro.obs import spans_from_simulation, to_chrome_trace

FAST_NET = NetworkModel(latency_s=0.0, bandwidth_bytes_per_s=1e15)


def workload(n_tasks=16, task_s=1.0, folds=1):
    fold = FoldSpec(tasks=tuple(TaskSpec(task_s) for _ in range(n_tasks)))
    return Workload(name="t", dataset_bytes=0, folds=tuple(fold for _ in range(folds)))


def config(n=4, **kw):
    kw.setdefault("network", FAST_NET)
    kw.setdefault("master_overhead_s", 0.0)
    return ClusterConfig(n_workers=n, **kw)


def trace(w, cfg):
    """The simulated schedule's spans."""
    return spans_from_simulation(*simulate_records(w, cfg))


def task_spans(spans):
    return [s for s in spans if s.kind == "task"]


def busy_per_worker(spans, n_workers):
    busy = [0.0] * n_workers
    for s in task_spans(spans):
        busy[s.thread] += s.attrs["compute_seconds"]
    return busy


def tail_seconds(spans, n_workers):
    """Last finish minus the ``n_workers``-th-to-last one."""
    finishes = sorted(s.t1 for s in task_spans(spans))
    return finishes[-1] - finishes[max(len(finishes) - n_workers, 0)]


class TestTraceConsistency:
    def test_elapsed_matches_simulate(self):
        w = workload(17, 0.7, folds=2)
        for cfg in (config(4), config(4, heterogeneity=0.2, seed=5),
                    config(3, schedule="static")):
            run = trace(w, cfg)[0]
            assert run.t1 == pytest.approx(simulate(w, cfg).elapsed_seconds)

    def test_elapsed_is_simulates_by_construction(self):
        """The view keeps the records ``simulate`` aggregates: equal to
        the bit, with the records on the run's clock."""
        w = workload(17, 0.7, folds=3)
        for cfg in (config(4, heterogeneity=0.2, seed=5),
                    config(3, schedule="static", master_overhead_s=1e-3)):
            spans = trace(w, cfg)
            plain = simulate(w, cfg)
            assert spans[0].t1 == plain.elapsed_seconds
            assert spans[1].name == "distribute-data"
            assert spans[1].t1 == plain.distribution_seconds
            last = max(s.t1 for s in task_spans(spans))
            assert last == pytest.approx(plain.elapsed_seconds)
            fold_1 = [s for s in task_spans(spans) if s.attrs["fold"] == 1]
            assert min(s.t0 for s in fold_1) == pytest.approx(
                plain.distribution_seconds + plain.fold_seconds[0]
            )

    def test_all_tasks_recorded(self):
        spans = task_spans(trace(workload(10, 1.0, folds=3), config(4)))
        assert len(spans) == 30
        assert {s.attrs["fold"] for s in spans} == {0, 1, 2}

    def test_records_time_ordered_per_worker(self):
        spans = task_spans(trace(workload(20, 1.0), config(4)))
        for w in range(4):
            mine = sorted(
                (s for s in spans if s.thread == w),
                key=lambda s: s.t0 + s.attrs["queue_seconds"],
            )
            for a, b in zip(mine, mine[1:]):
                assert a.t1 <= b.t0 + b.attrs["queue_seconds"] + 1e-12

    def test_compute_seconds_positive(self):
        for s in task_spans(trace(workload(8, 0.5), config(2))):
            assert s.attrs["compute_seconds"] == pytest.approx(0.5)
            assert s.attrs["queue_seconds"] >= 0.0


class TestDerivedStats:
    def test_balanced_load_on_uniform_tasks(self):
        spans = trace(workload(16, 1.0), config(4))
        assert Counter(s.thread for s in task_spans(spans)) == {
            0: 4, 1: 4, 2: 4, 3: 4
        }
        assert busy_per_worker(spans, 4) == pytest.approx([4.0] * 4)
        assert spans[0].t1 == pytest.approx(4.0)

    def test_idle_fraction_on_last_wave(self):
        spans = trace(workload(5, 1.0), config(4))
        idle = [1.0 - b / spans[0].t1 for b in busy_per_worker(spans, 4)]
        # one worker did 2 tasks (busy both units), three idled half
        assert min(idle) == pytest.approx(0.0, abs=1e-9)
        assert sum(i > 0.4 for i in idle) == 3

    def test_tail_seconds_nonzero_on_imbalance(self):
        spans = trace(workload(5, 1.0), config(4))
        assert tail_seconds(spans, 4) == pytest.approx(1.0)

    def test_tail_zero_on_perfect_division(self):
        spans = trace(workload(8, 1.0), config(4))
        assert tail_seconds(spans, 4) == pytest.approx(0.0, abs=1e-9)


class TestGantt:
    """The Chrome view is the schedule's Gantt chart: one lane per
    worker."""

    def test_render_shape(self):
        events = to_chrome_trace(trace(workload(8, 1.0), config(4)))["traceEvents"]
        lanes = {e["tid"] for e in events if e["cat"] == "task"}
        assert lanes == {0, 1, 2, 3}
        assert sum(e["cat"] == "task" for e in events) == 8

    def test_busy_workers_marked(self):
        events = to_chrome_trace(trace(workload(8, 1.0), config(4)))["traceEvents"]
        for w in range(4):
            busy = [e for e in events if e["cat"] == "task" and e["tid"] == w]
            assert busy and all(e["dur"] == pytest.approx(1e6) for e in busy)

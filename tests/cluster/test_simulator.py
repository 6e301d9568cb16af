"""Tests for the discrete-event cluster simulator."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    FoldSpec,
    NetworkModel,
    TaskSpec,
    Workload,
    offline_workload,
    simulate,
    speedup_curve,
)
from repro.data import FACE_SCENE


def simple_workload(n_tasks=32, task_s=1.0, folds=1, dataset_bytes=0):
    fold = FoldSpec(tasks=tuple(TaskSpec(task_s) for _ in range(n_tasks)))
    return Workload(
        name="t", dataset_bytes=dataset_bytes, folds=tuple(fold for _ in range(folds))
    )


#: Fast network with negligible latency for arithmetic-exact checks.
FAST_NET = NetworkModel(latency_s=0.0, bandwidth_bytes_per_s=1e15)


class TestExactSchedules:
    def test_single_worker_serializes(self):
        w = simple_workload(10, 2.0)
        res = simulate(w, ClusterConfig(n_workers=1, network=FAST_NET, master_overhead_s=0))
        assert res.elapsed_seconds == pytest.approx(20.0)

    def test_perfect_division(self):
        w = simple_workload(32, 1.0)
        res = simulate(w, ClusterConfig(n_workers=8, network=FAST_NET, master_overhead_s=0))
        assert res.elapsed_seconds == pytest.approx(4.0)
        assert res.utilization == pytest.approx(1.0)

    def test_last_wave_imbalance(self):
        """9 unit tasks on 8 workers take 2 time units, not 9/8."""
        w = simple_workload(9, 1.0)
        res = simulate(w, ClusterConfig(n_workers=8, network=FAST_NET, master_overhead_s=0))
        assert res.elapsed_seconds == pytest.approx(2.0)
        assert res.utilization < 1.0

    def test_fold_barrier(self):
        """Two folds of 9 tasks on 8 workers: the ceil loss pays twice."""
        w = simple_workload(9, 1.0, folds=2)
        res = simulate(w, ClusterConfig(n_workers=8, network=FAST_NET, master_overhead_s=0))
        assert res.elapsed_seconds == pytest.approx(4.0)
        assert res.fold_seconds.shape == (2,)

    def test_master_overhead_serializes(self):
        w = simple_workload(100, 0.0)
        res = simulate(
            w, ClusterConfig(n_workers=10, network=FAST_NET, master_overhead_s=0.01)
        )
        assert res.elapsed_seconds >= 0.95  # ~100 x 0.01 s serialized

    def test_distribution_counted_once(self):
        net = NetworkModel(latency_s=0.0, bandwidth_bytes_per_s=1e9)
        w = simple_workload(8, 1.0, dataset_bytes=10**9)
        res = simulate(w, ClusterConfig(n_workers=4, network=net, master_overhead_s=0))
        assert res.distribution_seconds == pytest.approx(4.0)  # 4 serialized sends
        # Two waves of 1 s, plus the wave's ten 1 KiB messages on the
        # master's link: four down, three up-and-down, then the last up.
        assert res.elapsed_seconds == pytest.approx(4.0 + 2.0 + 10 * 1024 / 1e9)

    def test_every_message_crosses_the_master_link(self):
        """Eight 1 GB results on a 1 GB/s star take 8 s however many
        workers send them: the bytes share the master's one link."""
        net = NetworkModel(latency_s=0.0, bandwidth_bytes_per_s=1e9)
        fold = FoldSpec(tasks=(TaskSpec(0.0, result_bytes=10**9),) * 8)
        w = Workload(name="bytes", dataset_bytes=0, folds=(fold,))
        res = simulate(w, ClusterConfig(n_workers=8, network=net, master_overhead_s=0))
        assert res.elapsed_seconds >= 8.0

    def test_serial_fold_seconds_added(self):
        fold = FoldSpec(tasks=(TaskSpec(1.0),), serial_seconds=0.5)
        w = Workload(name="x", dataset_bytes=0, folds=(fold,))
        res = simulate(w, ClusterConfig(n_workers=1, network=FAST_NET, master_overhead_s=0))
        assert res.elapsed_seconds == pytest.approx(1.5)


class TestHeterogeneity:
    def test_deterministic_given_seed(self):
        w = simple_workload(20, 1.0)
        cfg = ClusterConfig(n_workers=4, heterogeneity=0.1, seed=3)
        assert simulate(w, cfg).elapsed_seconds == simulate(w, cfg).elapsed_seconds

    def test_jitter_changes_schedule(self):
        w = simple_workload(20, 1.0)
        a = simulate(w, ClusterConfig(n_workers=4, heterogeneity=0.2, seed=1))
        b = simulate(w, ClusterConfig(n_workers=4, heterogeneity=0.0))
        assert a.elapsed_seconds != b.elapsed_seconds

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_workers=0)
        with pytest.raises(ValueError):
            ClusterConfig(n_workers=1, heterogeneity=1.0)
        with pytest.raises(ValueError):
            ClusterConfig(n_workers=1, master_overhead_s=-1)


class TestSpeedupCurve:
    def test_monotone_decreasing_elapsed(self):
        w = simple_workload(512, 0.5)
        curve = speedup_curve(w, [1, 2, 4, 8, 16])
        times = [curve[n][0] for n in (1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_speedup_relative_to_one(self):
        w = simple_workload(64, 1.0)
        curve = speedup_curve(w, [1, 4])
        assert curve[1][1] == pytest.approx(1.0)
        assert 3.0 < curve[4][1] <= 4.05

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            speedup_curve(simple_workload(), [])

    def test_near_linear_at_paper_scale(self):
        """The headline scaling claim: near-linear to 96 workers."""
        w = offline_workload(FACE_SCENE, task_seconds=0.984, task_voxels=120)
        curve = speedup_curve(w, [96])
        speedup = curve[96][1]
        assert 50 < speedup < 75  # paper: 59.8x

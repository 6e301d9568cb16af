"""Tests for worker-failure simulation."""

import pytest

from repro.cluster import (
    ClusterConfig,
    FoldSpec,
    NetworkModel,
    TaskSpec,
    Workload,
    simulate,
    simulate_with_failures,
)

FAST_NET = NetworkModel(latency_s=0.0, bandwidth_bytes_per_s=1e15)


def workload(n_tasks=32, task_s=1.0, folds=1):
    fold = FoldSpec(tasks=tuple(TaskSpec(task_s) for _ in range(n_tasks)))
    return Workload(name="t", dataset_bytes=0, folds=tuple(fold for _ in range(folds)))


def config(n=8):
    return ClusterConfig(n_workers=n, network=FAST_NET, master_overhead_s=0.0)


class TestFailureSimulation:
    def test_no_failures_matches_simulate(self):
        w = workload(17, 0.7)
        a = simulate(w, config(4)).elapsed_seconds
        b = simulate_with_failures(w, config(4), {}).elapsed_seconds
        assert a == pytest.approx(b)

    def test_one_death_slows_but_completes(self):
        w = workload(32, 1.0)
        healthy = simulate_with_failures(w, config(8), {}).elapsed_seconds
        degraded = simulate_with_failures(w, config(8), {3: 1.5}).elapsed_seconds
        assert degraded > healthy
        # 7 survivors should not be more than ~2.5x slower incl. timeout
        assert degraded < healthy * 2.5 + 5.0

    def test_dead_worker_never_reused(self):
        """After its death time, a worker takes no more tasks: killing
        it at t=0 equals running with one fewer worker (plus the one
        lost-task timeout if it had work in flight)."""
        w = workload(30, 1.0)
        killed = simulate_with_failures(
            w, config(3), {2: 0.0}, detection_timeout_s=0.0
        ).elapsed_seconds
        two_workers = simulate(w, config(2)).elapsed_seconds
        assert killed == pytest.approx(two_workers, rel=0.01)

    def test_detection_timeout_adds_delay(self):
        w = workload(16, 1.0)
        fast = simulate_with_failures(
            w, config(4), {0: 0.5}, detection_timeout_s=0.0
        ).elapsed_seconds
        slow = simulate_with_failures(
            w, config(4), {0: 0.5}, detection_timeout_s=10.0
        ).elapsed_seconds
        assert slow >= fast

    def test_all_workers_dead_raises(self):
        w = workload(8, 1.0)
        with pytest.raises(RuntimeError, match="all workers dead"):
            simulate_with_failures(w, config(2), {0: 0.1, 1: 0.1})

    def test_death_between_folds_respected(self):
        """A worker dying during fold 0 is also gone in fold 1."""
        w = workload(8, 1.0, folds=2)
        degraded = simulate_with_failures(w, config(4), {0: 0.5})
        healthy = simulate_with_failures(w, config(4), {})
        assert degraded.elapsed_seconds > healthy.elapsed_seconds

    def test_static_schedule_honoured_or_refused(self):
        """One event loop: without failures a static config runs the
        static schedule (``simulate``'s, to the bit — it used to be
        silently replaced by the dynamic one); with failures it raises,
        since a pre-assigned task cannot be re-queued."""
        fold = FoldSpec(tasks=tuple(TaskSpec(t) for t in (5.0, 1.0, 1.0, 1.0, 5.0, 1.0)))
        w = Workload(name="skewed", dataset_bytes=0, folds=(fold, fold))
        static = ClusterConfig(
            n_workers=2, network=FAST_NET, master_overhead_s=0.0, schedule="static"
        )
        plain = simulate(w, static)
        assert plain.elapsed_seconds > simulate(w, config(2)).elapsed_seconds
        same = simulate_with_failures(w, static, {})
        assert same.elapsed_seconds == plain.elapsed_seconds
        assert same.utilization == plain.utilization
        with pytest.raises(ValueError, match="dynamic"):
            simulate_with_failures(w, static, {0: 1.0})

    def test_no_failures_is_simulate_to_the_bit(self):
        w = workload(17, 0.7, folds=3)
        cfg = ClusterConfig(n_workers=4, heterogeneity=0.2, seed=5)
        a, b = simulate(w, cfg), simulate_with_failures(w, cfg, {})
        assert a.elapsed_seconds == b.elapsed_seconds
        assert (a.fold_seconds == b.fold_seconds).all()

    def test_validation(self):
        w = workload(4, 1.0)
        with pytest.raises(ValueError, match="unknown worker"):
            simulate_with_failures(w, config(2), {5: 1.0})
        with pytest.raises(ValueError, match="times"):
            simulate_with_failures(w, config(2), {0: -1.0})
        with pytest.raises(ValueError, match="detection_timeout"):
            simulate_with_failures(w, config(2), {}, detection_timeout_s=-1)

    def test_paper_scale_resilience(self):
        """Losing 4 of 96 coprocessors mid-run completes with a bounded
        slowdown set by *wave quantization*, not by lost capacity:
        face-scene's 288 tasks/fold are exactly 3 waves on 96 workers
        but ceil(288/92) = 4 waves on the survivors, so each fold pays
        one extra wave (~4/3) — far more than the 4.2% capacity lost.
        The run still finishes (pull scheduling + retry), which is the
        operational claim."""
        from repro.data import FACE_SCENE
        from repro.cluster import offline_workload
        from repro.hw import PHI_5110P
        from repro.perf.task_model import offline_task_seconds

        t = offline_task_seconds(FACE_SCENE, PHI_5110P, 120)
        w = offline_workload(FACE_SCENE, t, 120)
        cfg = ClusterConfig(n_workers=96)
        healthy = simulate_with_failures(w, cfg, {}).elapsed_seconds
        failures = {k: 10.0 + k for k in range(4)}
        degraded = simulate_with_failures(w, cfg, failures).elapsed_seconds
        assert 1.05 < degraded / healthy < 4.0 / 3.0 + 0.1

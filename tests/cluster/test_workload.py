"""Tests for cluster workload construction."""

import math

import pytest

from repro.cluster import ClusterConfig, simulate
from repro.cluster.workload import (
    FoldSpec,
    TaskSpec,
    Workload,
    measured_workload,
    offline_workload,
    online_workload,
)
from repro.data import ATTENTION, FACE_SCENE


class TestSpecs:
    def test_task_validation(self):
        with pytest.raises(ValueError):
            TaskSpec(compute_seconds=-1)
        with pytest.raises(ValueError):
            TaskSpec(compute_seconds=1, task_bytes=-1)

    def test_fold_requires_tasks(self):
        with pytest.raises(ValueError):
            FoldSpec(tasks=())

    def test_fold_compute_total(self):
        f = FoldSpec(tasks=(TaskSpec(1.0), TaskSpec(2.0)))
        assert f.compute_seconds_total == 3.0

    def test_workload_totals(self):
        f = FoldSpec(tasks=(TaskSpec(1.0),))
        w = Workload(name="x", dataset_bytes=10, folds=(f, f))
        assert w.total_compute_seconds == 2.0
        assert w.n_tasks == 2

    def test_workload_requires_folds(self):
        with pytest.raises(ValueError):
            Workload(name="x", dataset_bytes=0, folds=())


class TestOfflineWorkload:
    def test_fold_per_subject(self):
        w = offline_workload(FACE_SCENE, task_seconds=1.0, task_voxels=120)
        assert len(w.folds) == 18

    def test_task_count_matches_partition(self):
        w = offline_workload(FACE_SCENE, task_seconds=1.0, task_voxels=120)
        expected = math.ceil(34470 / 120)
        assert len(w.folds[0].tasks) == expected == 288

    def test_dataset_bytes(self):
        w = offline_workload(FACE_SCENE, 1.0, 120)
        assert w.dataset_bytes == FACE_SCENE.bold_bytes()

    def test_attention_geometry(self):
        w = offline_workload(ATTENTION, 1.0, 60)
        assert len(w.folds) == 30
        assert len(w.folds[0].tasks) == math.ceil(25260 / 60)

    def test_validation(self):
        with pytest.raises(ValueError):
            offline_workload(FACE_SCENE, task_seconds=0, task_voxels=120)
        with pytest.raises(ValueError):
            offline_workload(FACE_SCENE, task_seconds=1, task_voxels=0)


class TestOnlineWorkload:
    def test_single_fold(self):
        w = online_workload(FACE_SCENE, task_seconds=0.04, task_voxels=120)
        assert len(w.folds) == 1

    def test_single_subject_data_distributed(self):
        w = online_workload(FACE_SCENE, 0.04, 120)
        assert w.dataset_bytes == FACE_SCENE.bold_bytes() // 18


class TestMeasuredWorkload:
    """The replay of a finished run's ``ctx.task_seconds``."""

    def test_replays_measured_task_stream(self):
        workload = measured_workload(
            [1.0, 1.0], dataset_bytes=1 << 20, result_bytes=128
        )
        assert workload.n_tasks == 2
        assert workload.folds[0].tasks[0].result_bytes == 128
        result = simulate(workload, ClusterConfig(n_workers=2))
        # Two 1-second tasks on two workers: ~1 s plus transfer overheads.
        assert 1.0 <= result.elapsed_seconds < 2.0

    def test_rejects_empty_stream(self):
        with pytest.raises(ValueError, match="no recorded tasks"):
            measured_workload([], dataset_bytes=0)

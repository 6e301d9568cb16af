"""Tests for the whole-task model and task sizing."""

import pytest

from repro.bench import paperdata
from repro.bench.tables import within_factor
from repro.cluster import offline_workload
from repro.data import ATTENTION, FACE_SCENE
from repro.hw import E5_2670, PHI_5110P
from repro.perf.task_model import (
    OPTIMIZED_TASK_VOXELS,
    baseline_task_voxels,
    model_task,
    offline_task_seconds,
    online_task_seconds,
    per_voxel_seconds,
)


class TestTaskSizing:
    def test_face_scene_baseline_120(self):
        # Section 5.4.1: "the master only can allocate 120 voxels of the
        # face-scene dataset ... to a coprocessor".
        assert baseline_task_voxels(FACE_SCENE, PHI_5110P) == 120

    def test_attention_baseline_60(self):
        assert baseline_task_voxels(ATTENTION, PHI_5110P) == 60

    def test_host_not_memory_limited(self):
        # 120+ GB DRAM: the host could hold thousands of voxels.
        assert baseline_task_voxels(FACE_SCENE, E5_2670) > 1000

    def test_optimized_task_is_240(self):
        assert OPTIMIZED_TASK_VOXELS == 240


class TestModelTask:
    def test_stage_structure(self):
        est = model_task(FACE_SCENE, PHI_5110P, "optimized")
        assert set(est.stages) == {
            "correlation", "normalization", "kernel_precompute", "svm"
        }
        assert est.seconds == pytest.approx(
            sum(s.seconds for s in est.stages.values())
        )

    def test_baseline_uses_memory_limited_size(self):
        est = model_task(FACE_SCENE, PHI_5110P, "baseline")
        assert est.n_voxels_task == 120

    def test_explicit_size_override(self):
        est = model_task(FACE_SCENE, PHI_5110P, "optimized", n_voxels_task=60)
        assert est.n_voxels_task == 60

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            model_task(FACE_SCENE, PHI_5110P, "middle")

    def test_baseline_task_total_matches_table1_sum(self):
        """Table 1 rows sum to ~6.2 s for the 120-voxel baseline task."""
        est = model_task(FACE_SCENE, PHI_5110P, "baseline")
        table1_ms = sum(row[0] for row in paperdata.TABLE1_BASELINE.values())
        assert within_factor(est.seconds, table1_ms / 1e3, 1.2)


class TestFig9:
    def test_face_scene_speedup(self):
        base = per_voxel_seconds(FACE_SCENE, PHI_5110P, "baseline")
        opt = per_voxel_seconds(FACE_SCENE, PHI_5110P, "optimized")
        speedup = base / opt
        assert within_factor(speedup, paperdata.FIG9_SPEEDUP["face-scene"], 1.3)

    def test_attention_speedup(self):
        base = per_voxel_seconds(ATTENTION, PHI_5110P, "baseline")
        opt = per_voxel_seconds(ATTENTION, PHI_5110P, "optimized")
        speedup = base / opt
        assert within_factor(speedup, paperdata.FIG9_SPEEDUP["attention"], 1.35)

    def test_attention_gains_more(self):
        fs = per_voxel_seconds(FACE_SCENE, PHI_5110P, "baseline") / per_voxel_seconds(
            FACE_SCENE, PHI_5110P, "optimized"
        )
        att = per_voxel_seconds(ATTENTION, PHI_5110P, "baseline") / per_voxel_seconds(
            ATTENTION, PHI_5110P, "optimized"
        )
        assert att > 2 * fs


class TestFig10:
    def test_xeon_speedups_modest(self):
        for spec in (FACE_SCENE, ATTENTION):
            paper = paperdata.FIG10_XEON_SPEEDUP[spec.name]
            base = per_voxel_seconds(spec, E5_2670, "baseline")
            opt = per_voxel_seconds(spec, E5_2670, "optimized")
            assert within_factor(base / opt, paper, 1.45)

    def test_xeon_gains_smaller_than_phi(self):
        for spec in (FACE_SCENE, ATTENTION):
            phi = per_voxel_seconds(spec, PHI_5110P, "baseline") / per_voxel_seconds(
                spec, PHI_5110P, "optimized"
            )
            xeon = per_voxel_seconds(spec, E5_2670, "baseline") / per_voxel_seconds(
                spec, E5_2670, "optimized"
            )
            assert phi > xeon


class TestFig11:
    def test_optimized_phi_beats_optimized_xeon(self):
        """Section 5.5: "the optimized implementation on the coprocessor
        outperformed the same code running on the processor"."""
        for spec in (FACE_SCENE, ATTENTION):
            phi = per_voxel_seconds(spec, PHI_5110P, "optimized")
            xeon = per_voxel_seconds(spec, E5_2670, "optimized")
            assert phi < xeon


class TestClusterFeeds:
    @staticmethod
    def implied_task_seconds(spec, task_voxels):
        """Table 3's published single-node seconds over the task count."""
        n_tasks = offline_workload(spec, 1.0, task_voxels).n_tasks
        return paperdata.TABLE3_OFFLINE_SECONDS[spec.name][1] / n_tasks

    def test_offline_task_seconds_magnitude(self):
        """Table 3's single-node time implies ~1 s per 120-voxel task."""
        t = offline_task_seconds(FACE_SCENE, PHI_5110P, 120)
        assert within_factor(t, self.implied_task_seconds(FACE_SCENE, 120), 1.35)

    def test_attention_offline_task_seconds(self):
        t = offline_task_seconds(ATTENTION, PHI_5110P, 60)
        assert within_factor(t, self.implied_task_seconds(ATTENTION, 60), 1.35)

    def test_online_much_cheaper_than_offline(self):
        on = online_task_seconds(FACE_SCENE, PHI_5110P, 120)
        off = offline_task_seconds(FACE_SCENE, PHI_5110P, 120)
        assert on < off / 10

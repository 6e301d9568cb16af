"""Integration tests across the modeling tower: the perf models, the
cluster simulator, and the paper reference data must tell one
consistent story."""

import pytest

from repro.bench import paperdata, within_factor
from repro.cluster import ClusterConfig, offline_workload, simulate
from repro.data import ATTENTION, FACE_SCENE
from repro.hw import PHI_5110P
from repro.perf import (
    baseline_task_voxels,
    model_task,
    offline_task_seconds,
    task_memory,
)


class TestCrossModelConsistency:
    def test_task_time_times_task_count_matches_single_node(self):
        """Per-task model x task count ~ the simulated 1-node elapsed
        (the simulator adds only small overheads at n=1)."""
        for spec, tv in ((FACE_SCENE, 120), (ATTENTION, 60)):
            t = offline_task_seconds(spec, PHI_5110P, tv)
            workload = offline_workload(spec, t, tv)
            sim = simulate(workload, ClusterConfig(n_workers=1))
            ideal = workload.total_compute_seconds
            assert sim.elapsed_seconds == pytest.approx(ideal, rel=0.05)

    def test_memory_model_agrees_with_task_sizing(self):
        """The task-sizing rule and the memory model must agree: the
        baseline task the sizer picks fits DRAM; doubling it must not."""
        for spec in (FACE_SCENE, ATTENTION):
            v = baseline_task_voxels(spec, PHI_5110P)
            fits = task_memory(spec, v, "baseline").total_bytes
            assert fits <= PHI_5110P.usable_dram_bytes
            too_big = task_memory(spec, 2 * v + 120, "baseline").total_bytes
            assert too_big > PHI_5110P.usable_dram_bytes

    def test_fig9_consistent_with_table1_and_tables_5_7_8(self):
        """Fig 9's face-scene speedup must equal the ratio of the
        stage-model sums that produced Tables 1/5/7/8."""
        base = model_task(FACE_SCENE, PHI_5110P, "baseline")
        opt = model_task(FACE_SCENE, PHI_5110P, "optimized")
        speedup = base.seconds_per_voxel / opt.seconds_per_voxel
        # Table 1 sums to ~6.2 s for 120 voxels.
        table1_ms = sum(row[0] for row in paperdata.TABLE1_BASELINE.values())
        assert within_factor(base.seconds, table1_ms / 1e3, 1.2)
        assert within_factor(speedup, paperdata.FIG9_SPEEDUP["face-scene"], 1.35)

    def test_simulated_table3_consistent_with_fig8(self):
        """Speedups derived from our simulated Table 3 match our
        simulated Fig 8 (internal consistency, as in the paper)."""
        t = offline_task_seconds(FACE_SCENE, PHI_5110P, 120)
        workload = offline_workload(FACE_SCENE, t, 120)
        t1 = simulate(workload, ClusterConfig(n_workers=1)).elapsed_seconds
        t96 = simulate(workload, ClusterConfig(n_workers=96)).elapsed_seconds
        assert within_factor(t1 / t96, paperdata.FIG8_SPEEDUP_96["face-scene"], 1.25)

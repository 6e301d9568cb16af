"""Tests for the fused batched stage-1/2 access-pattern model."""

import pytest

from repro.data.presets import FACE_SCENE
from repro.hw import E5_2670, PHI_5110P
from repro.perf import (
    BatchedStage12Shape,
    batched_stage12_shape_for,
    model_batched_stage12,
    model_correlation_matmul,
    stage12_dispatch_amortization,
    sweep_fits_l2,
    sweep_slab_bytes,
)


class TestShape:
    def test_flops_match_unbatched_model(self):
        """Batching changes dispatch, not arithmetic."""
        sh = batched_stage12_shape_for(FACE_SCENE, 120, voxel_sweep=2)
        est = model_correlation_matmul(FACE_SCENE, 120, PHI_5110P)
        assert sh.flops == est.counters.flops

    def test_sweep_tiles(self):
        sh = BatchedStage12Shape(
            n_epochs=8, n_assigned=10, epoch_len=12, n_voxels=100, voxel_sweep=3
        )
        assert sh.n_sweep_tiles == 4  # ceil(10 / 3)
        assert sh.fused_dispatches == 52  # 13 per tile x 4 tiles

    def test_loop_dispatches_count_epochs_and_callbacks(self):
        sh = BatchedStage12Shape(
            n_epochs=8, n_assigned=32, epoch_len=12, n_voxels=1024,
            voxel_sweep=2, loop_voxel_block=16, loop_target_block=512,
        )
        # 2 voxel blocks x 2 target blocks x (8 gemms + 1 callback)
        assert sh.loop_dispatches == 2 * 2 * 9

    def test_amortization_is_large_for_paper_scale(self):
        sh = batched_stage12_shape_for(FACE_SCENE, 120, voxel_sweep=2)
        assert stage12_dispatch_amortization(sh) > 50

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchedStage12Shape(0, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            BatchedStage12Shape(1, 1, 1, 1, 0)


class TestSweepResidency:
    def test_slab_bytes_include_scratch(self):
        sh = BatchedStage12Shape(
            n_epochs=8, n_assigned=10, epoch_len=12, n_voxels=100, voxel_sweep=2
        )
        assert sweep_slab_bytes(sh) == 2 * (2 * 8 * 100 * 4)

    def test_small_sweep_fits_large_sweep_does_not(self):
        small = batched_stage12_shape_for(FACE_SCENE, 120, voxel_sweep=1)
        large = batched_stage12_shape_for(FACE_SCENE, 120, voxel_sweep=120)
        assert not sweep_fits_l2(large, E5_2670)
        # One voxel slab: 1 x E x N x 4 x 2 — still > Phi's 256 KB share
        # at face-scene scale, but fits the host's 256 KB/thread? No:
        # 2 x 311 x 34470 x 4 ≈ 85 MB... so just assert monotonicity.
        assert sweep_slab_bytes(small) < sweep_slab_bytes(large)

    def test_residency_drives_miss_count(self):
        """Above the L2 knee the model charges the extra normalization
        passes to DRAM, so misses strictly increase."""
        spec = FACE_SCENE
        est_small = model_batched_stage12(spec, 4, E5_2670, voxel_sweep=1)
        est_large = model_batched_stage12(spec, 4, E5_2670, voxel_sweep=4)
        small_sh = batched_stage12_shape_for(spec, 4, 1)
        large_sh = batched_stage12_shape_for(spec, 4, 4)
        if sweep_fits_l2(small_sh, E5_2670) and not sweep_fits_l2(
            large_sh, E5_2670
        ):
            assert est_large.counters.l2_misses > est_small.counters.l2_misses
        else:
            # Same residency class -> identical traffic.
            assert est_large.counters.l2_misses == est_small.counters.l2_misses


class TestModel:
    def test_estimate_has_positive_time(self):
        est = model_batched_stage12(FACE_SCENE, 120, PHI_5110P, voxel_sweep=2)
        assert est.seconds > 0
        assert est.counters.flops == pytest.approx(
            2.0 * FACE_SCENE.n_epochs * 120 * FACE_SCENE.epoch_length
            * FACE_SCENE.n_voxels
        )

    def test_no_remote_rereads_unlike_blocked_model(self):
        """The single batched gemm reads B once; the blocked model's
        per-voxel-block remote re-reads are gone."""
        est = model_batched_stage12(FACE_SCENE, 120, PHI_5110P, voxel_sweep=2)
        blocked = model_correlation_matmul(FACE_SCENE, 120, PHI_5110P, "ours")
        assert est.counters.l2_remote_hits == 0.0
        assert blocked.counters.l2_remote_hits > 0.0

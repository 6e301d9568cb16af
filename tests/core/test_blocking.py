"""Tests for cache-driven blocking plans."""

import pytest

from repro.core.blocking import BlockingPlan, plan_blocks
from repro.hw import E5_2670, PHI_5110P


class TestBlockingPlan:
    def test_tile_bytes(self):
        p = BlockingPlan(voxel_block=4, target_block=32, epoch_block=6)
        assert p.tile_bytes() == 4 * 32 * 6 * 4

    def test_working_set_includes_inputs(self):
        p = BlockingPlan(voxel_block=4, target_block=32, epoch_block=6)
        ws = p.working_set_bytes(epoch_length=12)
        assert ws == p.tile_bytes() + (4 + 32) * 6 * 12 * 4

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockingPlan(0, 1, 1)


class TestPlanBlocks:
    def test_fits_phi_l2_budget(self):
        plan = plan_blocks(
            PHI_5110P, epochs_per_subject=12, epoch_length=12,
            n_assigned=120, n_voxels=34470,
        )
        budget = PHI_5110P.l2_per_thread_bytes() * 0.8
        assert plan.working_set_bytes(12) <= budget
        assert plan.epoch_block == 12

    def test_target_block_multiple_of_vpu(self):
        plan = plan_blocks(
            PHI_5110P, epochs_per_subject=12, epoch_length=12,
            n_assigned=120, n_voxels=34470,
        )
        assert plan.target_block % PHI_5110P.vpu_width_sp == 0

    def test_xeon_plan_valid(self):
        plan = plan_blocks(
            E5_2670, epochs_per_subject=12, epoch_length=12,
            n_assigned=120, n_voxels=34470,
        )
        assert plan.working_set_bytes(12) <= E5_2670.l2_per_thread_bytes() * 0.8
        assert plan.target_block % E5_2670.vpu_width_sp == 0

    def test_small_brain_caps_target_block(self):
        plan = plan_blocks(
            PHI_5110P, epochs_per_subject=4, epoch_length=12,
            n_assigned=8, n_voxels=50,
        )
        assert plan.target_block <= 50
        assert plan.voxel_block <= 8

    def test_degenerate_tiny_cache(self):
        """Even an absurd epoch count yields a usable (if tiny) plan."""
        plan = plan_blocks(
            PHI_5110P, epochs_per_subject=4000, epoch_length=12,
            n_assigned=16, n_voxels=1000,
        )
        assert plan.voxel_block >= 1
        assert plan.target_block >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_blocks(PHI_5110P, 0, 12, 10, 100)
        with pytest.raises(ValueError):
            plan_blocks(PHI_5110P, 4, 12, 10, 100, cache_fraction=0.0)

    def test_plans_usable_by_blocked_correlation(self):
        """The planner's output must be directly consumable by the
        stage-1/2 engine, and only ever change its tiling."""
        import numpy as np

        from repro.core.correlation import correlate_batched, normalize_epoch_data
        from repro.core.engine import DenseEmitter, run_engine
        from repro.core.normalization import normalize_separated

        plan = plan_blocks(
            PHI_5110P, epochs_per_subject=4, epoch_length=8,
            n_assigned=10, n_voxels=40,
        )
        z = normalize_epoch_data(
            np.random.default_rng(0).standard_normal((8, 40, 8)).astype(np.float32)
        )
        assigned = np.arange(10)
        out, _ = run_engine(
            z, assigned, plan.epoch_block,
            DenseEmitter(voxel_sweep=plan.voxel_block),
        )
        np.testing.assert_array_equal(
            out,
            normalize_separated(correlate_batched(z, assigned), plan.epoch_block),
        )


class TestCandidateGuardFix:
    def test_tiny_n_assigned_gets_full_width_block(self):
        """n_assigned=3 used to be budgeted at b=4 (the smallest menu
        entry passing the old ``b > 2 * n_assigned`` guard); clamping
        before budgeting yields voxel_block == n_assigned."""
        plan = plan_blocks(
            PHI_5110P, epochs_per_subject=12, epoch_length=12,
            n_assigned=3, n_voxels=34470,
        )
        assert plan.voxel_block == 3
        assert plan.working_set_bytes(12) <= PHI_5110P.l2_per_thread_bytes() * 0.8

    def test_single_assigned_voxel(self):
        plan = plan_blocks(
            PHI_5110P, epochs_per_subject=12, epoch_length=12,
            n_assigned=1, n_voxels=34470,
        )
        assert plan.voxel_block == 1
        assert plan.target_block >= PHI_5110P.vpu_width_sp

"""Tests for the batched stage-3a syrk access-pattern model."""

import pytest

from repro.data.presets import FACE_SCENE
from repro.hw import E5_2670, PHI_5110P
from repro.perf import (
    BatchedSyrkShape,
    batched_syrk_shape_for,
    dispatch_amortization,
    max_resident_batch,
    model_batched_syrk,
    model_kernel_syrk,
    syrk_shape_for,
)


class TestShape:
    def test_arithmetic_is_batch_invariant(self):
        base = syrk_shape_for(FACE_SCENE, 120)
        for batch in (1, 64, 240):
            sh = batched_syrk_shape_for(FACE_SCENE, 120, batch)
            assert sh.flops == base.flops

    def test_dispatch_counts(self):
        sh = BatchedSyrkShape(n_problems=120, m=204, n=34470, batch=64)
        assert sh.n_batches == 2
        assert sh.dispatches == 2
        assert sh.dispatches_per_voxel_path == 120

    def test_amortization_equals_effective_batch(self):
        sh = batched_syrk_shape_for(FACE_SCENE, 120, batch=60)
        assert dispatch_amortization(sh) == pytest.approx(60.0)

    def test_batch_one_amortizes_nothing(self):
        sh = batched_syrk_shape_for(FACE_SCENE, 120, batch=1)
        assert dispatch_amortization(sh) == 1.0

    def test_working_set_grows_with_batch(self):
        small = BatchedSyrkShape(120, 204, 34470, batch=8)
        big = BatchedSyrkShape(120, 204, 34470, batch=64)
        assert big.working_set_bytes == 8 * small.working_set_bytes

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchedSyrkShape(0, 204, 34470, batch=8)
        with pytest.raises(ValueError):
            BatchedSyrkShape(120, 204, 34470, batch=0)


class TestResidency:
    def test_host_uses_llc(self):
        assert E5_2670.llc is not None
        got = max_resident_batch(E5_2670, 204, n=9600)
        per_problem = 4 * (204 * 9600 + 204 * 204)
        assert got == E5_2670.llc.size_bytes // per_problem

    def test_at_least_one(self):
        assert max_resident_batch(PHI_5110P, 10_000, n=100_000) == 1


class TestModel:
    def test_matches_per_voxel_model_when_resident(self):
        """Same FLOPs and same DRAM traffic as the optimized per-voxel
        syrk — batching changes dispatch count, not data movement."""
        batched = model_batched_syrk(FACE_SCENE, 120, PHI_5110P, batch=64)
        ref = model_kernel_syrk(FACE_SCENE, 120, PHI_5110P, "ours")
        assert batched.counters.flops == ref.counters.flops
        assert batched.counters.l2_misses == ref.counters.l2_misses
        assert batched.seconds == pytest.approx(ref.seconds, rel=1e-9)

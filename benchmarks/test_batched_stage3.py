"""Benchmark: batched stage 3 vs the per-voxel reference path.

The batched driver computes a block of voxel kernels in one stacked GEMM
and cross-validates the whole block through the multi-problem SMO
solver, paying the Python-interpreter cost of an SMO iteration once per
*sweep* instead of once per voxel.  This bench times both drivers on the
face-scene-scaled task geometry, asserts the committed >= 3x speedup
floor, verifies score equality, and writes the measurement to
``benchmarks/results/latest/batched_stage3.txt``.
"""

import time

import numpy as np
import pytest

from repro.core.voxel_selection import score_voxels, score_voxels_reference
from repro.svm import PhiSVM

#: Committed floor: the batched path must beat per-voxel by this factor.
SPEEDUP_FLOOR = 3.0


@pytest.fixture(scope="module")
def stage3_task():
    """One face-scene-scaled task: 96 assigned voxels, 6 subjects x 12
    epochs, 240 brain voxels, with a planted 8-voxel ROI."""
    rng = np.random.default_rng(2015)
    v, m, n = 96, 72, 240
    corr = rng.standard_normal((v, m, n)).astype(np.float32)
    labels = np.tile([0, 1], m // 2)
    corr[:8, labels == 1, :20] += 1.5
    folds = np.repeat(np.arange(6), 12)
    return corr, np.arange(v), labels, folds


class TestBatchedStage3:
    def test_batched_beats_reference_3x(
        self, benchmark, stage3_task, save_table
    ):
        corr, ids, labels, folds = stage3_task
        svm = PhiSVM()

        batched = benchmark(
            score_voxels, corr, ids, labels, folds, svm, batch_voxels=64
        )

        t0 = time.perf_counter()
        reference = score_voxels_reference(corr, ids, labels, folds, svm)
        reference_seconds = time.perf_counter() - t0

        # Planted-ROI equality: trajectories are bitwise-equal, so the
        # accuracies must agree to float32 tolerance (in practice exactly).
        np.testing.assert_allclose(
            batched.accuracies, reference.accuracies, atol=1e-6
        )
        assert batched.accuracies[:8].mean() > batched.accuracies[8:].mean()

        if benchmark.stats is None:
            # --benchmark-disable (CI smoke): correctness checked above,
            # but there is no timing to assert or record.
            return

        batched_seconds = benchmark.stats.stats.min
        speedup = reference_seconds / batched_seconds
        assert speedup >= SPEEDUP_FLOOR, (
            f"batched stage 3 only {speedup:.2f}x over per-voxel "
            f"(floor {SPEEDUP_FLOOR}x)"
        )
        save_table(
            "batched_stage3",
            f"batched stage 3: {speedup:.1f}x over per-voxel "
            f"({reference_seconds:.2f}s -> {batched_seconds:.2f}s), "
            f"floor {SPEEDUP_FLOOR}x",
        )

    def test_batched_kernels_only(self, benchmark, stage3_task):
        """The stacked-GEMM half in isolation (no SVM), for profiling."""
        from repro.core.kernels import kernel_matrix_batched

        corr, _, _, _ = stage3_task
        out = benchmark(kernel_matrix_batched, corr)
        assert out.shape == (96, 72, 72)

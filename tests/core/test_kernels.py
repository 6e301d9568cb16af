"""Tests for stage 3a: kernel matrix precomputation."""

import numpy as np
import pytest

from repro.core.kernels import (
    kernel_matrix_baseline,
    kernel_matrix_batched,
)


def data(m=10, n=300, seed=0):
    return np.random.default_rng(seed).standard_normal((m, n)).astype(np.float32)


class TestBaseline:
    def test_is_gram_matrix(self):
        x = data()
        np.testing.assert_allclose(
            kernel_matrix_baseline(x), x @ x.T, rtol=1e-5
        )

    def test_symmetric_psd(self):
        k = kernel_matrix_baseline(data(seed=1))
        np.testing.assert_allclose(k, k.T, atol=1e-3)
        eigs = np.linalg.eigvalsh(k.astype(np.float64))
        assert eigs.min() > -1e-2

    def test_float32(self):
        assert kernel_matrix_baseline(data()).dtype == np.float32

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            kernel_matrix_baseline(np.zeros(5))


def stacked(v=5, m=10, n=300, seed=0):
    return np.random.default_rng(seed).standard_normal((v, m, n)).astype(np.float32)


class TestBatched:
    def test_bitwise_equals_per_voxel_baseline(self):
        """The stacked GEMM must reproduce each per-voxel BLAS Gram
        matrix exactly — same dtype, same reduction order, same bits."""
        x = stacked(seed=7)
        out = kernel_matrix_batched(x)
        for i in range(x.shape[0]):
            np.testing.assert_array_equal(out[i], kernel_matrix_baseline(x[i]))

    def test_single_problem_batch(self):
        x = stacked(v=1, seed=10)
        np.testing.assert_array_equal(
            kernel_matrix_batched(x)[0], kernel_matrix_baseline(x[0])
        )

    def test_float32(self):
        assert kernel_matrix_batched(stacked()).dtype == np.float32

    def test_validation(self):
        with pytest.raises(ValueError):
            kernel_matrix_batched(np.zeros((10, 300)))

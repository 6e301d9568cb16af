"""Measured (not modeled) kernel benchmarks on scaled-down data.

These time the actual numpy implementations of both code paths at a
size where a benchmark round completes in milliseconds.  Because the
Python/numpy substrate is not a KNC coprocessor, absolute numbers are
not comparable to the paper; these benches exist to (a) track
regressions in the real kernels and (b) verify the *numeric*
equivalence of every optimized/baseline pair under timing pressure.
"""

import numpy as np
import pytest

from repro.core.correlation import (
    correlate_baseline,
    correlate_batched,
    normalize_epoch_data,
)
from repro.core.engine import DenseEmitter, run_engine
from repro.core.kernels import kernel_matrix_baseline, kernel_matrix_batched
from repro.core.normalization import normalize_separated
from repro.svm import LibSVMClassifier, PhiSVM, linear_kernel


@pytest.fixture(scope="module")
def stage1_inputs():
    rng = np.random.default_rng(0)
    z = normalize_epoch_data(
        rng.standard_normal((24, 2000, 12)).astype(np.float32)
    )
    assigned = np.arange(32)
    return z, assigned


@pytest.fixture(scope="module")
def svm_problem():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((96, 400)).astype(np.float32)
    w = rng.standard_normal(400)
    labels = (x @ w + 0.5 * rng.standard_normal(96) > 0).astype(int)
    return linear_kernel(x), labels


class TestStage1:
    def test_correlation_baseline(self, benchmark, stage1_inputs):
        z, assigned = stage1_inputs
        out = benchmark(correlate_baseline, z, assigned)
        assert out.shape == (32, 24, 2000)

    def test_correlation_batched(self, benchmark, stage1_inputs):
        z, assigned = stage1_inputs
        out = benchmark(correlate_batched, z, assigned)
        np.testing.assert_allclose(
            out, correlate_baseline(z, assigned), atol=3e-7, rtol=0
        )


class TestStage12Merged:
    def test_separated(self, benchmark, stage1_inputs):
        z, assigned = stage1_inputs

        def run():
            corr = correlate_baseline(z, assigned)
            return normalize_separated(corr, 4)

        out = benchmark(run)
        assert np.isfinite(out).all()

    def test_merged(self, benchmark, stage1_inputs):
        """The optimized pipeline's stage 1/2: the tiled engine."""
        z, assigned = stage1_inputs

        def run():
            return run_engine(z, assigned, 4, DenseEmitter())[0]

        merged = benchmark(run)
        separated = normalize_separated(correlate_baseline(z, assigned), 4)
        np.testing.assert_allclose(merged, separated, atol=1e-5)


class TestStage3Kernel:
    @pytest.fixture(scope="class")
    def voxel_matrices(self):
        rng = np.random.default_rng(2)
        return rng.standard_normal((8, 96, 4000)).astype(np.float32)

    def test_syrk_baseline(self, benchmark, voxel_matrices):
        def run():
            return [kernel_matrix_baseline(x) for x in voxel_matrices]

        out = benchmark(run)
        assert out[0].shape == (96, 96)

    def test_syrk_batched(self, benchmark, voxel_matrices):
        out = benchmark(kernel_matrix_batched, voxel_matrices)
        for got, x in zip(out, voxel_matrices):
            np.testing.assert_array_equal(got, kernel_matrix_baseline(x))


class TestSVMSolvers:
    def test_phisvm(self, benchmark, svm_problem):
        kernel, labels = svm_problem
        model = benchmark(PhiSVM().fit_kernel, kernel, labels)
        assert model.converged

    def test_libsvm_like(self, benchmark, svm_problem):
        kernel, labels = svm_problem
        model = benchmark(
            LibSVMClassifier().fit_kernel, kernel.astype(np.float64), labels
        )
        assert model.converged

    def test_solvers_agree(self, benchmark, svm_problem):
        kernel, labels = svm_problem

        def both():
            phi = PhiSVM(tol=1e-4).fit_kernel(kernel, labels)
            lib = LibSVMClassifier(tol=1e-4).fit_kernel(
                kernel.astype(np.float64), labels
            )
            return phi, lib

        phi, lib = benchmark(both)
        assert abs(phi.objective - lib.objective) < 1e-2 * max(
            1.0, abs(lib.objective)
        )

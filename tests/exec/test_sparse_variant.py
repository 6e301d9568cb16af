"""The sparse-batched pipeline variant: wiring, counters, CLI, stage 3.

End-to-end parity anchor: at tau=0 the sparse variant keeps every
correlation, so its CSR stage 3 must reproduce the optimized-batched
variant's accuracies exactly.  Plus the seams the variant adds:
``FCMAConfig`` threshold/top-k validation, the registry entry, the CLI
flags, the nnz-balanced row partitioner, and the CSR Gram panel.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import FCMAConfig
from repro.core.kernels import csr_gram_panel, kernel_matrix_batched
from repro.core.engine import run_engine
from repro.core.sparse import CSREmitter, threshold_dense
from repro.core.voxel_selection import score_voxels, score_voxels_sparse
from repro.data import generate_dataset, quickstart_config, save_dataset
from repro.exec import RunContext, available_variants, make_executor
from repro.exec.partition import partition_rows_by_nnz
from repro.svm import PhiSVM, grouped_cross_validation


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_dataset(quickstart_config(seed=11).scaled(n_voxels=72))


def _run(dataset, **config_kwargs):
    ctx = RunContext(FCMAConfig(task_voxels=40, **config_kwargs))
    scores = make_executor("serial").run(dataset, ctx, np.arange(24))
    return scores, ctx


class TestSparseVariantEndToEnd:
    def test_tau_zero_matches_optimized_batched_exactly(self, tiny_dataset):
        dense_scores, _ = _run(tiny_dataset, variant="optimized-batched")
        sparse_scores, ctx = _run(
            tiny_dataset, variant="sparse-batched", threshold=0.0
        )
        np.testing.assert_array_equal(
            dense_scores.voxels, sparse_scores.voxels
        )
        np.testing.assert_allclose(
            dense_scores.accuracies, sparse_scores.accuracies, atol=1e-12
        )

    def test_counters_recorded(self, tiny_dataset):
        _, ctx = _run(tiny_dataset, variant="sparse-batched", top_k=5)
        counters = ctx.metadata["counters"]
        n_epochs = tiny_dataset.n_epochs
        assert counters["stage12_nnz"] == 24 * n_epochs * 5
        assert counters["stage12_tiles"] >= 1
        assert counters["stage12_tiles_pruned"] == 0
        # Counters are additive; the density is their ratio.
        expected_density = 5 / tiny_dataset.n_voxels
        assert counters["stage12_nnz"] / counters[
            "stage12_elements"
        ] == pytest.approx(expected_density, rel=1e-12)
        assert counters.get("stage12_out_copies", 0) == 0

    def test_density_is_not_summed_over_tasks(self, tiny_dataset, tmp_path, capsys):
        """Two tasks, one density: ``nnz / elements`` of the whole run,
        in the library report and in ``fcma run --json`` (the per-task
        sum used to read twice the density on this run)."""
        expected = 5 / tiny_dataset.n_voxels
        ctx = RunContext(
            FCMAConfig(task_voxels=12, variant="sparse-batched", top_k=5)
        )
        make_executor("serial").run(tiny_dataset, ctx, np.arange(24))
        assert ctx.metadata["n_tasks"] == 2
        counters = ctx.timing_report()["counters"]
        assert counters["stage12_density"] == pytest.approx(expected, rel=1e-12)
        assert counters["stage12_elements"] == (
            24 * tiny_dataset.n_epochs * tiny_dataset.n_voxels
        )
        assert "stage12_density" not in ctx.metadata["counters"]

        path = tmp_path / "tiny.npz"
        save_dataset(tiny_dataset, path)
        rc = main([
            "run", str(path), "--variant", "sparse-batched", "--top-k", "5",
            "--task-voxels", "12", "--json",
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_tasks"] == 6
        assert report["counters"]["stage12_density"] == pytest.approx(
            expected, rel=1e-12
        )

    def test_large_tau_prunes_tiles(self, tiny_dataset):
        _, ctx = _run(tiny_dataset, variant="sparse-batched", threshold=99.0)
        counters = ctx.metadata["counters"]
        assert counters["stage12_nnz"] == 0
        assert counters["stage12_tiles_pruned"] == counters["stage12_tiles"]

    def test_variant_registered(self):
        assert "sparse-batched" in available_variants()


class TestConfigValidation:
    def test_sparse_variant_requires_a_mode(self):
        with pytest.raises(ValueError, match="threshold or top_k"):
            FCMAConfig(variant="sparse-batched")

    def test_modes_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            FCMAConfig(
                variant="sparse-batched", threshold=0.5, top_k=3
            )

    def test_dense_variant_rejects_modes(self):
        with pytest.raises(ValueError, match="sparse-batched"):
            FCMAConfig(variant="optimized-batched", threshold=0.5)
        with pytest.raises(ValueError, match="sparse-batched"):
            FCMAConfig(variant="baseline", top_k=3)

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            FCMAConfig(variant="sparse-batched", threshold=-0.1)
        with pytest.raises(ValueError, match="top_k"):
            FCMAConfig(variant="sparse-batched", top_k=0)


class TestCli:
    @pytest.mark.parametrize("command", ["run", "select"])
    def test_sparse_flags_parse(self, command):
        args = build_parser().parse_args(
            [command, "data.npz", "--variant", "sparse-batched",
             "--threshold", "2.2"]
        )
        assert args.variant == "sparse-batched"
        assert args.threshold == pytest.approx(2.2)
        assert args.top_k is None

    def test_top_k_parses(self):
        args = build_parser().parse_args(
            ["run", "data.npz", "--variant", "sparse-batched",
             "--top-k", "100"]
        )
        assert args.top_k == 100
        assert args.threshold is None

    def test_generate_sparse_100k_preset_listed(self):
        args = build_parser().parse_args(
            ["generate", "out.npz", "--preset", "sparse-100k"]
        )
        assert args.preset == "sparse-100k"


class TestPartitionRowsByNnz:
    def test_balanced_panels(self):
        counts = np.array([5, 5, 5, 5])
        assert partition_rows_by_nnz(counts, 10) == [(0, 2), (2, 4)]

    def test_heavy_row_gets_own_panel(self):
        counts = np.array([2, 100, 2])
        assert partition_rows_by_nnz(counts, 10) == [(0, 1), (1, 2), (2, 3)]

    def test_max_rows_caps_width(self):
        counts = np.zeros(7, dtype=np.int64)
        panels = partition_rows_by_nnz(counts, 10**9, max_rows=3)
        assert panels == [(0, 3), (3, 6), (6, 7)]

    def test_panels_tile_the_range(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 50, size=33)
        panels = partition_rows_by_nnz(counts, 120, max_rows=8)
        flat = [i for lo, hi in panels for i in range(lo, hi)]
        assert flat == list(range(33))

    def test_validation(self):
        with pytest.raises(ValueError, match="max_nnz"):
            partition_rows_by_nnz(np.array([1]), 0)
        with pytest.raises(ValueError, match="max_rows"):
            partition_rows_by_nnz(np.array([1]), 5, max_rows=0)
        with pytest.raises(ValueError, match=">= 0"):
            partition_rows_by_nnz(np.array([-1]), 5)


def _sparse_problem(v=4, m=24, n=30, seed=0):
    rng = np.random.default_rng(seed)
    corr = rng.standard_normal((v, m, n)).astype(np.float32)
    corr[0, np.tile([0, 1], m // 2) == 1, :10] += 2.0
    labels = np.tile([0, 1], m // 2)
    folds = np.repeat(np.arange(4), m // 4)
    sparse = threshold_dense(corr, threshold=0.0)
    return corr, sparse, labels, folds


class TestSparseStage3:
    def test_csr_gram_panel_matches_dense(self):
        corr, sparse, _, _ = _sparse_problem()
        dense_gram = kernel_matrix_batched(corr)
        sparse_gram = csr_gram_panel(sparse, 0, corr.shape[0])
        np.testing.assert_allclose(sparse_gram, dense_gram, atol=1e-4)

    def test_kernel_matrix_batched_accepts_csr(self):
        corr, sparse, _, _ = _sparse_problem()
        np.testing.assert_allclose(
            kernel_matrix_batched(sparse),
            kernel_matrix_batched(corr),
            atol=1e-4,
        )

    def test_scores_match_dense_at_tau_zero(self):
        corr, sparse, labels, folds = _sparse_problem()
        ids = np.arange(corr.shape[0])
        dense = score_voxels(corr, ids, labels, folds, PhiSVM(tol=1e-4))
        from_csr = score_voxels_sparse(
            sparse, ids, labels, folds, PhiSVM(tol=1e-4)
        )
        np.testing.assert_array_equal(dense.voxels, from_csr.voxels)
        np.testing.assert_allclose(
            dense.accuracies, from_csr.accuracies, atol=0.05
        )

    def test_sequential_fallback_matches_batched(self):
        _, sparse, labels, folds = _sparse_problem(seed=3)
        ids = np.arange(sparse.shape[0])
        batched = score_voxels_sparse(
            sparse, ids, labels, folds, PhiSVM(tol=1e-4)
        )
        sequential = [
            grouped_cross_validation(PhiSVM(tol=1e-4), kernel, labels, folds)
            for kernel in kernel_matrix_batched(sparse)
        ]
        np.testing.assert_allclose(
            batched.accuracies, [r.accuracy for r in sequential], atol=0.05
        )

    def test_type_check(self):
        _, _, labels, folds = _sparse_problem()
        with pytest.raises(TypeError, match="SparseCorrelationResult"):
            score_voxels_sparse(
                np.zeros((2, 3, 4), dtype=np.float32),
                np.arange(2), labels, folds, PhiSVM(),
            )

    def test_actual_sparse_result_scorable(self):
        """CSR straight from the engine (not densify-threshold) feeds
        stage 3 — the full tentpole path in miniature."""
        rng = np.random.default_rng(5)
        from repro.core.correlation import normalize_epoch_data

        z = normalize_epoch_data(
            rng.standard_normal((8, 20, 6)).astype(np.float32)
        )
        assigned = np.arange(4)
        result, _ = run_engine(z, assigned, 2, CSREmitter(top_k=5))
        labels = np.tile([0, 1], 4)
        folds = np.repeat(np.arange(2), 4)
        scores = score_voxels_sparse(
            result, assigned, labels, folds, PhiSVM(tol=1e-4)
        )
        assert scores.accuracies.shape == (4,)
        assert ((scores.accuracies >= 0) & (scores.accuracies <= 1)).all()


class TestSparseScoreIsTheDenseScore:
    """``score_voxels_sparse`` is ``score_kernels`` over the sparse Gram —
    one batch/fallback loop, one scipy conversion, fixed ``batch_voxels``
    panels — so its scores are bitwise those, whatever the nnz profile."""

    @staticmethod
    def _problems():
        rng = np.random.default_rng(7)
        v, m, n = 23, 24, 90
        corr = (0.3 * rng.standard_normal((v, m, n))).astype(np.float32)
        corr[:, np.tile([0, 1], m // 2) == 1, :8] += 0.4
        # One hub voxel: nearly every entry survives the threshold, so
        # an nnz-balanced split would cut the panels around it.
        corr[5] *= 6.0
        ragged = threshold_dense(corr, threshold=0.5)
        voxel_nnz = ragged.row_nnz.reshape(v, m).sum(axis=1)
        assert voxel_nnz[5] > 5 * np.median(voxel_nnz)
        return {"tau": ragged, "top-k": threshold_dense(corr, top_k=9)}

    @pytest.mark.parametrize("mode", ["tau", "top-k"])
    @pytest.mark.parametrize("batch_voxels", [1, 7, 64])
    def test_batched_bitwise(self, mode, batch_voxels, monkeypatch):
        from repro.core.sparse import SparseCorrelationResult
        from repro.core.voxel_selection import score_kernels

        sparse = self._problems()[mode]
        v, m, _ = sparse.shape
        ids, labels = np.arange(v) * 3, np.tile([0, 1], m // 2)
        folds = np.repeat(np.arange(4), m // 4)
        conversions = []
        real = SparseCorrelationResult.to_scipy
        monkeypatch.setattr(
            SparseCorrelationResult,
            "to_scipy",
            lambda self: conversions.append(1) or real(self),
        )
        got = score_voxels_sparse(
            sparse, ids, labels, folds, PhiSVM(tol=1e-4), batch_voxels=batch_voxels
        )
        assert len(conversions) == 1
        want = score_kernels(
            kernel_matrix_batched(sparse), ids, labels, folds, PhiSVM(tol=1e-4),
            batch_voxels=batch_voxels,
        )
        np.testing.assert_array_equal(got.voxels, want.voxels)
        np.testing.assert_array_equal(got.accuracies, want.accuracies)
        # ... and the batch width never shows in the bits.
        whole = score_kernels(
            kernel_matrix_batched(sparse), ids, labels, folds, PhiSVM(tol=1e-4)
        )
        np.testing.assert_array_equal(got.accuracies, whole.accuracies)

    @pytest.mark.parametrize("mode", ["tau", "top-k"])
    def test_per_voxel_fallback_bitwise(self, mode):
        """LibSVM backend, 3-class labels: no batched trainer applies."""
        from repro.core.voxel_selection import score_kernels
        from repro.exec.registry import create_backend

        sparse = self._problems()[mode]
        v, m, _ = sparse.shape
        ids, labels = np.arange(v), np.tile([0, 1, 2], m // 3)
        folds = np.repeat(np.arange(4), m // 4)
        backend = create_backend(FCMAConfig(variant="baseline"))
        got = score_voxels_sparse(sparse, ids, labels, folds, backend)
        want = score_kernels(
            kernel_matrix_batched(sparse), ids, labels, folds, backend
        )
        np.testing.assert_array_equal(got.accuracies, want.accuracies)
        assert np.ptp(got.accuracies) > 0

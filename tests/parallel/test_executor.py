"""The serial and master-worker executors through their public entry."""

import numpy as np
import pytest

from repro.exec import MasterWorkerExecutor, RunContext, SerialExecutor


class TestSerial:
    def test_scores_sorted(self, tiny_dataset, fast_fcma_config):
        scores = SerialExecutor().run(tiny_dataset, RunContext(fast_fcma_config))
        assert len(scores) == tiny_dataset.n_voxels
        assert (np.diff(scores.accuracies) <= 1e-12).all()

    def test_subset(self, tiny_dataset, fast_fcma_config):
        scores = SerialExecutor().run(
            tiny_dataset, RunContext(fast_fcma_config), voxels=np.array([1, 5, 9])
        )
        assert set(scores.voxels.tolist()) == {1, 5, 9}


class TestParallel:
    def test_matches_serial(self, tiny_dataset, fast_fcma_config):
        serial = SerialExecutor().run(tiny_dataset, RunContext(fast_fcma_config))
        par = MasterWorkerExecutor(n_workers=2).run(
            tiny_dataset, RunContext(fast_fcma_config)
        )
        np.testing.assert_array_equal(serial.voxels, par.voxels)
        np.testing.assert_allclose(serial.accuracies, par.accuracies)

    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            MasterWorkerExecutor(n_workers=0)

    def test_voxel_subset(self, tiny_dataset, fast_fcma_config):
        par = MasterWorkerExecutor(n_workers=2).run(
            tiny_dataset, RunContext(fast_fcma_config), voxels=np.arange(10)
        )
        assert len(par) == 10

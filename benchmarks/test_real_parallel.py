"""Measured benchmarks of the execution core on real FCMA work.

Runs the actual executors — serial reference and the master-worker
protocol over thread ranks — over a small synthetic dataset.  On a
multi-core machine the ranks show real speedup; on a single-core CI box
these still verify the protocol's overhead stays bounded and the
outputs stay identical.
"""

import numpy as np
import pytest

from repro.core import FCMAConfig
from repro.data import SyntheticConfig, generate_dataset
from repro.exec import (
    MasterWorkerExecutor,
    RunContext,
    SerialExecutor,
)


@pytest.fixture(scope="module")
def workload():
    cfg = SyntheticConfig(
        n_voxels=90, n_subjects=3, epochs_per_subject=6, epoch_length=12,
        n_informative=12, n_groups=3, seed=5, name="bench",
    )
    return generate_dataset(cfg), FCMAConfig(task_voxels=30, target_block=64)


def test_serial_selection(benchmark, workload):
    ds, cfg = workload
    scores = benchmark(lambda: SerialExecutor().run(ds, RunContext(cfg)))
    assert len(scores) == 90


def test_mpi_protocol_selection(benchmark, workload):
    ds, cfg = workload
    executor = MasterWorkerExecutor(n_workers=2)
    scores = benchmark(lambda: executor.run(ds, RunContext(cfg)))
    reference = SerialExecutor().run(ds, RunContext(cfg))
    np.testing.assert_allclose(scores.accuracies, reference.accuracies)

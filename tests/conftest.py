"""Shared fixtures: small synthetic datasets reused across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FCMAConfig
from repro.data import SyntheticConfig, generate_dataset


@pytest.fixture(scope="session")
def tiny_config() -> SyntheticConfig:
    """Small config: full pipeline runs in well under a second."""
    return SyntheticConfig(
        n_voxels=60,
        n_subjects=4,
        epochs_per_subject=8,
        epoch_length=12,
        n_informative=12,
        n_groups=3,
        seed=123,
        name="tiny",
    )


@pytest.fixture(scope="session")
def tiny_dataset(tiny_config):
    return generate_dataset(tiny_config)


@pytest.fixture(scope="session")
def small_config() -> SyntheticConfig:
    """Medium config: enough voxels for ROI-recovery statistics."""
    return SyntheticConfig(
        n_voxels=150,
        n_subjects=4,
        epochs_per_subject=8,
        epoch_length=12,
        n_informative=20,
        n_groups=4,
        seed=7,
        name="small",
    )


@pytest.fixture(scope="session")
def small_dataset(small_config):
    return generate_dataset(small_config)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def fast_fcma_config() -> FCMAConfig:
    """Pipeline config tuned for test speed (small tiles, few voxels)."""
    return FCMAConfig(task_voxels=40, target_block=32)


@pytest.fixture()
def small_gram_chunks(monkeypatch) -> int:
    """Shrink the Gram rule's chunk to 16 columns — in this process only
    — so the 60-voxel tiny dataset is four chunks and a 32-column tile
    two.  Spawned worker *processes* do not see a monkeypatch: tests
    that cross a process boundary run the real constant."""
    import repro.core.kernels as kernels

    monkeypatch.setattr(kernels, "GRAM_CHUNK_COLS", 16)
    return 16

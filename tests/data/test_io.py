"""Tests for dataset persistence."""

import numpy as np
import pytest

from repro.data import (
    BrainMask,
    EpochTable,
    FMRIDataset,
    load_dataset,
    load_epochs,
    save_dataset,
    save_epochs,
)
from repro.data.synthetic import SyntheticConfig, generate_dataset


def test_round_trip(tmp_path, tiny_dataset):
    path = save_dataset(tiny_dataset, tmp_path / "ds.npz")
    loaded = load_dataset(path)
    assert loaded.name == tiny_dataset.name
    assert loaded.n_voxels == tiny_dataset.n_voxels
    assert loaded.epochs == tiny_dataset.epochs
    for s in tiny_dataset.subject_ids():
        np.testing.assert_array_equal(
            loaded.subject_data(s), tiny_dataset.subject_data(s)
        )


def test_round_trip_with_mask(tmp_path):
    cfg = SyntheticConfig(
        n_voxels=24, n_informative=6, n_groups=2, grid=(2, 3, 4),
        n_subjects=2, epochs_per_subject=2,
    )
    ds = generate_dataset(cfg)
    loaded = load_dataset(save_dataset(ds, tmp_path / "m.npz"))
    assert loaded.mask is not None
    assert loaded.mask == ds.mask


def test_suffix_added(tmp_path, tiny_dataset):
    path = save_dataset(tiny_dataset, tmp_path / "noext")
    assert path.suffix == ".npz"
    assert path.exists()


def test_creates_parent_dirs(tmp_path, tiny_dataset):
    path = save_dataset(tiny_dataset, tmp_path / "a" / "b" / "ds.npz")
    assert path.exists()


def test_version_check(tmp_path, tiny_dataset):
    path = save_dataset(tiny_dataset, tmp_path / "ds.npz")
    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    arrays["format_version"] = np.array(99)
    np.savez(tmp_path / "bad.npz", **arrays)
    with pytest.raises(ValueError, match="version"):
        load_dataset(tmp_path / "bad.npz")


def test_epoch_file_round_trip(tmp_path):
    t = EpochTable.regular(3, 4, 12, gap=2)
    path = save_epochs(t, tmp_path / "epochs.txt")
    assert load_epochs(path) == t


def test_epoch_file_human_readable(tmp_path):
    t = EpochTable.regular(1, 2, 12)
    path = save_epochs(t, tmp_path / "epochs.txt")
    text = path.read_text()
    assert text.startswith("#")
    assert "0 0 0 12" in text


def test_loaded_dataset_usable_in_pipeline(tmp_path, tiny_dataset):
    """A loaded dataset must feed a task without re-validation issues."""
    from repro.core import FCMAConfig
    from repro.exec import RunContext, execute_task

    loaded = load_dataset(save_dataset(tiny_dataset, tmp_path / "ds.npz"))
    scores = execute_task(
        loaded, np.arange(5), RunContext(FCMAConfig(target_block=32))
    )
    assert len(scores) == 5

"""Tests for the pure-numpy NIfTI-1 I/O."""

import struct

import numpy as np
import pytest

from repro.data import BrainMask
from repro.data.nifti import (
    accuracy_map_to_nifti,
    bold_from_nifti,
    read_nifti,
    write_nifti,
)


def volume_4d(shape=(4, 5, 6, 8), seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


class TestRoundTrip:
    def test_4d_float32(self, tmp_path):
        vol = volume_4d()
        img = read_nifti(write_nifti(tmp_path / "a", vol, tr_seconds=1.5))
        np.testing.assert_array_equal(img.data, vol)
        assert img.is_4d
        assert img.tr_seconds == pytest.approx(1.5)

    def test_3d(self, tmp_path):
        vol = volume_4d((3, 4, 5, 1))[..., 0]
        img = read_nifti(write_nifti(tmp_path / "b", vol))
        np.testing.assert_array_equal(img.data, vol)
        assert not img.is_4d

    def test_int16(self, tmp_path):
        vol = np.arange(24, dtype=np.int16).reshape(2, 3, 4)
        img = read_nifti(write_nifti(tmp_path / "c", vol))
        assert img.data.dtype == np.int16
        np.testing.assert_array_equal(img.data, vol)

    def test_float64_round_trips(self, tmp_path):
        vol = volume_4d((2, 2, 2, 3)).astype(np.float64)
        img = read_nifti(write_nifti(tmp_path / "d", vol))
        # float64 is a supported code and preserved exactly
        np.testing.assert_array_equal(img.data, vol)

    def test_affine_preserved(self, tmp_path):
        vol = volume_4d((2, 2, 2, 2))
        affine = np.array(
            [[2.0, 0, 0, -10], [0, 2.0, 0, -20], [0, 0, 2.5, 5], [0, 0, 0, 1]]
        )
        img = read_nifti(write_nifti(tmp_path / "e", vol, affine=affine))
        np.testing.assert_allclose(img.affine, affine, atol=1e-5)

    def test_suffix_enforced(self, tmp_path):
        path = write_nifti(tmp_path / "noext", volume_4d((2, 2, 2, 2)))
        assert path.suffix == ".nii"

    def test_fortran_order_on_disk(self, tmp_path):
        """First axis varies fastest on disk (the NIfTI convention)."""
        vol = np.zeros((2, 2, 2), dtype=np.float32)
        vol[1, 0, 0] = 7.0
        raw = write_nifti(tmp_path / "f", vol).read_bytes()
        first_two = np.frombuffer(raw[352:360], dtype=np.float32)
        np.testing.assert_array_equal(first_two, [0.0, 7.0])


class TestValidation:
    def test_bad_ndim(self, tmp_path):
        with pytest.raises(ValueError, match="3D or 4D"):
            write_nifti(tmp_path / "x", np.zeros((2, 2)))

    def test_bad_affine(self, tmp_path):
        with pytest.raises(ValueError, match="4x4"):
            write_nifti(tmp_path / "x", np.zeros((2, 2, 2)), affine=np.eye(3))

    def test_bool_dtype_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            write_nifti(tmp_path / "x", np.zeros((2, 2, 2), dtype=bool))

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "short.nii"
        p.write_bytes(b"\x00" * 100)
        with pytest.raises(ValueError, match="too small"):
            read_nifti(p)

    def test_bad_magic(self, tmp_path):
        vol = volume_4d((2, 2, 2, 2))
        p = write_nifti(tmp_path / "g", vol)
        raw = bytearray(p.read_bytes())
        raw[344:348] = b"XXXX"
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            read_nifti(p)

    def test_wrong_header_size(self, tmp_path):
        vol = volume_4d((2, 2, 2, 2))
        p = write_nifti(tmp_path / "h", vol)
        raw = bytearray(p.read_bytes())
        struct.pack_into("<i", raw, 0, 999)
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="sizeof_hdr"):
            read_nifti(p)


class TestBridges:
    def test_bold_extraction_matches_mask_order(self, tmp_path):
        vol = volume_4d((4, 4, 4, 6))
        mask = BrainMask.ellipsoid((4, 4, 4))
        img = read_nifti(write_nifti(tmp_path / "i", vol))
        bold = bold_from_nifti(img, mask)
        assert bold.shape == (mask.n_voxels, 6)
        coords = mask.coordinates()
        np.testing.assert_array_equal(
            bold[0], vol[coords[0, 0], coords[0, 1], coords[0, 2]]
        )

    def test_bold_requires_4d(self, tmp_path):
        img = read_nifti(write_nifti(tmp_path / "j", volume_4d((2, 2, 2, 2))[..., 0]))
        with pytest.raises(ValueError, match="4D"):
            bold_from_nifti(img, BrainMask.full((2, 2, 2)))

    def test_grid_mismatch(self, tmp_path):
        img = read_nifti(write_nifti(tmp_path / "k", volume_4d((2, 2, 2, 2))))
        with pytest.raises(ValueError, match="grid"):
            bold_from_nifti(img, BrainMask.full((3, 3, 3)))

    def test_accuracy_overlay(self, tmp_path):
        mask = BrainMask.full((2, 2, 2))
        path = accuracy_map_to_nifti(
            tmp_path / "acc", mask, np.array([0, 7]), np.array([0.9, 0.6])
        )
        img = read_nifti(path)
        assert img.data[0, 0, 0] == pytest.approx(0.9, abs=1e-6)
        assert img.data[1, 1, 1] == pytest.approx(0.6, abs=1e-6)
        assert img.data[0, 0, 1] == 0.0

    def test_full_loop_nifti_to_fcma(self, tmp_path):
        """NIfTI in -> FCMA -> NIfTI accuracy map out."""
        from repro.core import FCMAConfig
        from repro.exec import RunContext, execute_task
        from repro.data import Epoch, EpochTable, FMRIDataset

        rng = np.random.default_rng(3)
        grid = (4, 4, 3)
        mask = BrainMask.full(grid)
        n_vox = mask.n_voxels
        scan = rng.standard_normal((*grid, 32)).astype(np.float32)
        img = read_nifti(write_nifti(tmp_path / "scan", scan, tr_seconds=1.5))
        bold = bold_from_nifti(img, mask)
        epochs = EpochTable(
            [Epoch(0, k % 2, k * 8, 8) for k in range(4)]
        )
        ds = FMRIDataset({0: bold}, epochs, mask=mask)
        scores = execute_task(
            ds,
            np.arange(8),
            RunContext(FCMAConfig(target_block=16, online_folds=2)),
        )
        out = accuracy_map_to_nifti(
            tmp_path / "map", mask, scores.voxels, scores.accuracies
        )
        assert read_nifti(out).data.shape == grid

"""Tests for the result containers: VoxelScores and PanelAssembler."""

import numpy as np
import pytest

from repro.core.results import PanelAssembler, VoxelScores


def scores(voxels, accs):
    return VoxelScores(
        voxels=np.asarray(voxels, dtype=np.int64),
        accuracies=np.asarray(accs, dtype=np.float64),
    )


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            VoxelScores(np.arange(3), np.zeros(2))

    def test_out_of_range_accuracy(self):
        with pytest.raises(ValueError, match="0, 1"):
            scores([0], [1.5])

    def test_len(self):
        assert len(scores([1, 2], [0.5, 0.6])) == 2


class TestSorting:
    def test_descending_accuracy(self):
        s = scores([10, 11, 12], [0.2, 0.9, 0.5]).sorted_by_accuracy()
        np.testing.assert_array_equal(s.voxels, [11, 12, 10])

    def test_ties_broken_by_voxel_id(self):
        s = scores([5, 3, 9], [0.7, 0.7, 0.7]).sorted_by_accuracy()
        np.testing.assert_array_equal(s.voxels, [3, 5, 9])

    def test_top_k(self):
        s = scores([1, 2, 3, 4], [0.1, 0.8, 0.6, 0.9])
        top = s.top(2)
        np.testing.assert_array_equal(top.voxels, [4, 2])

    def test_top_k_clamped(self):
        s = scores([1], [0.5])
        assert len(s.top(10)) == 1

    def test_top_invalid(self):
        with pytest.raises(ValueError):
            scores([1], [0.5]).top(0)


class TestConcatenate:
    def test_merges_parts(self):
        a = scores([0, 1], [0.5, 0.6])
        b = scores([2], [0.7])
        merged = VoxelScores.concatenate([a, b])
        assert len(merged) == 3
        assert merged.accuracy_of(2) == pytest.approx(0.7)

    def test_duplicate_voxels_rejected(self):
        a = scores([0], [0.5])
        b = scores([0], [0.6])
        with pytest.raises(ValueError, match="duplicate"):
            VoxelScores.concatenate([a, b])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            VoxelScores.concatenate([])


class TestAccessors:
    def test_accuracy_of_missing(self):
        with pytest.raises(KeyError):
            scores([1], [0.5]).accuracy_of(2)


class TestPanelAssembler:
    ROWS = np.array([4, 7], dtype=np.int64)

    @staticmethod
    def tile(c0: int, c1: int, fill: float = 1.0) -> np.ndarray:
        return np.full((2, 3, c1 - c0), fill, dtype=np.float32)

    def assembler(self, n_tiles: int = 2) -> PanelAssembler:
        asm = PanelAssembler(n_voxels=8, n_epochs=3)
        asm.expect(0, self.ROWS, n_tiles)
        return asm

    def test_out_of_order_tiles_complete_exactly_once(self):
        asm = self.assembler(n_tiles=3)
        assert asm.add(0, 5, 8, self.tile(5, 8, 3.0)) is None
        assert asm.add(0, 0, 2, self.tile(0, 2, 1.0)) is None
        assert asm.pending_panels == [0] and asm.n_complete == 0
        panel = asm.add(0, 2, 5, self.tile(2, 5, 2.0))
        assert panel is not None and panel.shape == (2, 3, 8)
        np.testing.assert_array_equal(panel[0, 0], [1, 1, 2, 2, 2, 3, 3, 3])
        assert asm.panel_buffer(0) is panel
        assert asm.pending_panels == [] and asm.n_complete == 1
        np.testing.assert_array_equal(asm.rows_of(0), self.ROWS)

    def test_duplicate_before_completion_does_not_advance(self):
        asm = self.assembler()
        assert asm.add(0, 0, 4, self.tile(0, 4, 1.0)) is None
        assert asm.add(0, 0, 4, self.tile(0, 4, 9.0)) is None  # same range again
        assert asm.n_complete == 0
        panel = asm.add(0, 4, 8, self.tile(4, 8, 2.0))
        assert panel is not None
        np.testing.assert_array_equal(panel[1, 2], [9, 9, 9, 9, 2, 2, 2, 2])

    def test_duplicate_after_release_allocates_nothing(self):
        """A worker presumed lost can still deliver after the panel was
        scored and released; that tile must not resurrect a full
        ``(rows, epochs, n_voxels)`` buffer."""
        asm = self.assembler()
        asm.add(0, 0, 4, self.tile(0, 4))
        assert asm.add(0, 4, 8, self.tile(4, 8)) is not None
        asm.release(0)
        assert asm.add(0, 4, 8, self.tile(4, 8)) is None
        assert asm._buffers == {} and asm._filled == {}
        assert asm.n_complete == 1
        with pytest.raises(KeyError):
            asm.panel_buffer(0)  # released: nothing to hand out

    def test_duplicate_after_completion_leaves_the_panel_alone(self):
        asm = self.assembler()
        asm.add(0, 0, 4, self.tile(0, 4, 1.0))
        panel = asm.add(0, 4, 8, self.tile(4, 8, 2.0))
        assert asm.add(0, 0, 4, self.tile(0, 4, 1.0)) is None
        assert asm.panel_buffer(0) is panel and asm.n_complete == 1

    def test_rejects_bad_tiles_and_declarations(self):
        asm = self.assembler()
        with pytest.raises(KeyError, match="never declared"):
            asm.add(1, 0, 4, self.tile(0, 4))
        with pytest.raises(ValueError, match="column range"):
            asm.add(0, 4, 9, self.tile(4, 9))
        with pytest.raises(ValueError, match="column range"):
            asm.add(0, 3, 3, self.tile(0, 1))
        with pytest.raises(ValueError, match="shape"):
            asm.add(0, 0, 4, self.tile(0, 3))
        with pytest.raises(ValueError, match="already declared"):
            asm.expect(0, self.ROWS, 2)
        with pytest.raises(ValueError, match="n_tiles"):
            asm.expect(1, self.ROWS, 0)
        with pytest.raises(ValueError, match="non-empty"):
            asm.expect(1, np.array([], dtype=np.int64), 1)
        with pytest.raises(KeyError, match="not complete"):
            asm.panel_buffer(0)
        with pytest.raises(ValueError):
            PanelAssembler(n_voxels=0, n_epochs=3)

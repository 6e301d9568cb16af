"""The single task-carving helper every execution path delegates to."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.kernels import GRAM_CHUNK_COLS, gram_chunks
from repro.exec.partition import (
    TileTask,
    n_tasks,
    partition_tasks,
    partition_tiles,
    tile_cols_for,
)


class TestPartitionTasks:
    def test_whole_brain_contiguous_ranges(self):
        tasks = partition_tasks(10, 4)
        assert [t.tolist() for t in tasks] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert all(t.dtype == np.int64 for t in tasks)

    def test_exact_division_has_no_short_tail(self):
        tasks = partition_tasks(8, 4)
        assert [len(t) for t in tasks] == [4, 4]

    def test_single_task_covers_everything(self):
        (task,) = partition_tasks(5, 100)
        assert task.tolist() == [0, 1, 2, 3, 4]

    def test_explicit_voxel_subset_chunked_in_order(self):
        voxels = np.array([7, 3, 11, 2, 9])
        tasks = partition_tasks(1000, 2, voxels)
        assert [t.tolist() for t in tasks] == [[7, 3], [11, 2], [9]]

    def test_concatenated_partition_is_identity(self):
        tasks = partition_tasks(101, 7)
        np.testing.assert_array_equal(np.concatenate(tasks), np.arange(101))

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_nonpositive_task_voxels(self, bad):
        with pytest.raises(ValueError, match="task_voxels"):
            partition_tasks(10, bad)

    def test_rejects_nonpositive_n_voxels(self):
        with pytest.raises(ValueError, match="n_voxels"):
            partition_tasks(0, 4)

    def test_rejects_empty_voxel_array(self):
        with pytest.raises(ValueError, match="non-empty"):
            partition_tasks(10, 4, np.array([], dtype=np.int64))

    def test_rejects_2d_voxel_array(self):
        with pytest.raises(ValueError, match="1D"):
            partition_tasks(10, 4, np.zeros((2, 2), dtype=np.int64))


class TestNTasks:
    @pytest.mark.parametrize(
        "n_voxels,task_voxels,expected",
        [(10, 4, 3), (8, 4, 2), (1, 100, 1), (100, 1, 100)],
    )
    def test_matches_partition_length(self, n_voxels, task_voxels, expected):
        assert n_tasks(n_voxels, task_voxels) == expected
        assert len(partition_tasks(n_voxels, task_voxels)) == expected

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            n_tasks(0, 4)
        with pytest.raises(ValueError):
            n_tasks(10, 0)


class TestPartitionTiles:
    def test_row_major_order_and_indices(self):
        tiles = partition_tiles(10, 4, 6)
        # 3 row panels x 2 column tiles, row-major.
        assert [(t.panel, t.col_start, t.col_stop) for t in tiles] == [
            (0, 0, 6), (0, 6, 10),
            (1, 0, 6), (1, 6, 10),
            (2, 0, 6), (2, 6, 10),
        ]
        assert [t.index for t in tiles] == list(range(6))

    def test_rows_match_1d_partition(self):
        tasks = partition_tasks(10, 4)
        tiles = partition_tiles(10, 4, 6)
        for panel_id, task in enumerate(tasks):
            panel_tiles = [t for t in tiles if t.panel == panel_id]
            for t in panel_tiles:
                np.testing.assert_array_equal(t.rows, task)

    def test_tiles_cover_every_output_element_once(self):
        tiles = partition_tiles(11, 3, 4)
        covered = np.zeros((11, 11), dtype=int)
        for t in tiles:
            covered[np.ix_(t.rows, np.arange(t.col_start, t.col_stop))] += 1
        assert (covered == 1).all()

    def test_explicit_voxel_subset(self):
        voxels = np.array([9, 4, 7])
        tiles = partition_tiles(12, 2, 12, voxels)
        assert [t.rows.tolist() for t in tiles] == [[9, 4], [7]]
        assert all((t.col_start, t.col_stop) == (0, 12) for t in tiles)
        assert [(t.n_rows, t.n_cols) for t in tiles] == [(2, 12), (1, 12)]

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError, match="tile_cols"):
            partition_tiles(10, 4, 0)
        with pytest.raises(ValueError, match="column range"):
            TileTask(
                index=0, panel=0,
                rows=np.arange(3, dtype=np.int64), col_start=5, col_stop=5,
            )


class TestTileColsFor:
    def test_multiple_of_target_block(self, small_gram_chunks):
        """... and of the Gram chunk: a tile is whole planner blocks and
        whole chunks, i.e. a multiple of their lcm."""
        cols = tile_cols_for(1000, 24, n_workers=4, n_panels=2)
        assert cols < 1000
        assert cols % math.lcm(24, small_gram_chunks) == 0
        gram_chunks(1000, 0, cols)  # chunk boundaries: does not raise

    def test_real_chunk_at_the_wide_geometry(self):
        cols = tile_cols_for(34_470, 512, n_workers=2, n_panels=1)
        assert cols % math.lcm(512, GRAM_CHUNK_COLS) == 0
        assert 2 <= -(-34_470 // cols) <= 4
        for t in partition_tiles(34_470, 120, cols, np.arange(60)):
            gram_chunks(34_470, t.col_start, t.col_stop)

    def test_single_chunk_row_is_one_tile(self):
        assert tile_cols_for(1000, 32, n_workers=4, n_panels=2) == 1000

    def test_one_column_tail_chunk_stays_with_its_neighbour(
        self, small_gram_chunks
    ):
        """The rule merges a 1-column tail chunk into the chunk before
        it; no uniform tile width may cut that chunk."""
        for n_voxels in (33, 65, 97, 129):
            cols = tile_cols_for(n_voxels, 16, n_workers=4, n_panels=1)
            tiles = partition_tiles(n_voxels, 40, cols)
            assert tiles[-1].col_stop == n_voxels
            for t in tiles:
                gram_chunks(n_voxels, t.col_start, t.col_stop)

    def test_never_exceeds_n_voxels(self):
        assert tile_cols_for(20, 32, n_workers=4, n_panels=1) == 20

    def test_more_workers_means_narrower_tiles(self):
        wide = tile_cols_for(4096, 32, n_workers=1, n_panels=1)
        narrow = tile_cols_for(4096, 32, n_workers=16, n_panels=1)
        assert narrow <= wide

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            tile_cols_for(0, 32, 2, 2)
        with pytest.raises(ValueError):
            tile_cols_for(100, 32, 0, 2)


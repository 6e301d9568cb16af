"""Task partitioning: the single place voxel ranges are carved.

"The tasks are defined by partitioning the correlation matrices along
their rows" (paper Section 3.1.1).  Every execution path — the serial
driver, the process-pool executor, the master-worker protocol, and the
cluster simulator's workload builders — used to carve those row ranges
independently; they all delegate here now, so a change to the task
decomposition happens exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy.typing import NDArray

from ..core.engine import gemm_safe_block
from ..core.kernels import gram_chunks
from ..core.tiling import iter_blocks, n_blocks

__all__ = [
    "TileTask",
    "partition_tasks",
    "partition_tiles",
    "tile_cols_for",
    "n_tasks",
    "auto_chunksize",
    "partition_rows_by_nnz",
]


def partition_tasks(
    n_voxels: int,
    task_voxels: int,
    voxels: NDArray[Any] | None = None,
) -> list[NDArray[np.int64]]:
    """Partition voxels into master-assignable tasks of ``task_voxels``.

    With ``voxels=None`` the whole brain ``[0, n_voxels)`` is carved
    into contiguous ranges; otherwise the given index array is chunked
    in order.  The final task may be short.  Task order is the
    aggregation order every executor preserves, so identical inputs
    yield identical concatenated results on any backend.
    """
    if task_voxels < 1:
        raise ValueError("task_voxels must be >= 1")
    if voxels is None:
        if n_voxels < 1:
            raise ValueError("n_voxels must be >= 1")
        return [
            np.arange(start, stop, dtype=np.int64)
            for start, stop in iter_blocks(n_voxels, task_voxels)
        ]
    out = np.asarray(voxels, dtype=np.int64)
    if out.ndim != 1 or out.size == 0:
        raise ValueError("voxels must be a non-empty 1D index array")
    return [out[start:stop] for start, stop in iter_blocks(out.size, task_voxels)]


@dataclass(frozen=True)
class TileTask:
    """One 2-D tile of the (assigned × all-voxels) correlation matrix.

    Tiles partition the output of stage 1/2 both ways: ``rows`` is the
    row panel's assigned voxel ids (what 1-D partitioning called a
    task), ``col_start:col_stop`` the target-voxel column range.  A
    worker computes the tile's fused stage-1/2 block chunk by chunk and
    keeps it: what it returns is each chunk's ``(rows, epochs, epochs)``
    partial Gram (:func:`repro.core.kernels.gram_chunks`), which the
    master adds in column order into the panel's kernels before stage 3
    scores them.  ``index`` is the deterministic row-major dispatch
    order.
    """

    index: int
    #: Which row panel this tile extends (0-based, row-major).
    panel: int
    #: Assigned voxel ids of the row panel, shape (rows,).
    rows: NDArray[np.int64]
    #: Half-open target-voxel column range of this tile.
    col_start: int
    col_stop: int

    def __post_init__(self) -> None:
        if self.index < 0 or self.panel < 0:
            raise ValueError("tile index and panel must be >= 0")
        if not 0 <= self.col_start < self.col_stop:
            raise ValueError(
                f"bad column range [{self.col_start}, {self.col_stop})"
            )

    @property
    def n_rows(self) -> int:
        return int(self.rows.size)

    @property
    def n_cols(self) -> int:
        return self.col_stop - self.col_start


def tile_cols_for(
    n_voxels: int, target_block: int, n_workers: int, n_panels: int
) -> int:
    """Column width of a distributed tile.

    Multiple of the blocking planner's ``target_block`` (so each tile's
    inner gemm walks whole planner blocks) *and* of the Gram rule's
    chunk (:func:`repro.core.kernels.gram_chunks`: a tile returns its
    chunks' partial Grams, so every chunk must belong to exactly one
    tile), sized to give every worker a few tiles per row panel: enough
    parallelism for dynamic balance, few enough that per-tile message
    overhead stays amortized.  A row of a single chunk is one tile.
    """
    if min(n_voxels, target_block, n_workers, n_panels) < 1:
        raise ValueError("tile_cols_for arguments must be >= 1")
    # The first chunk is as wide as the rule's chunk (or the whole row).
    c0, c1 = gram_chunks(n_voxels)[0]
    quantum = math.lcm(target_block, c1 - c0)
    # ~2 column tiles per worker per panel, at least one quantum.
    want = max(1, 2 * n_workers // n_panels)
    cols = -(-n_voxels // (want * quantum)) * quantum
    # The rule merges a one-column tail chunk into its neighbour; a
    # uniform width that would cut it off takes one more quantum.
    while cols < n_voxels and n_voxels % cols == 1:
        cols += quantum
    return min(cols, n_voxels)


def partition_tiles(
    n_voxels: int,
    task_voxels: int,
    tile_cols: int,
    voxels: NDArray[Any] | None = None,
) -> list[TileTask]:
    """2-D tile partition: row panels × target-column blocks.

    Row panels come from :func:`partition_tasks` (so the stage-3 unit
    of aggregation is unchanged); each panel is split into column tiles
    of ``tile_cols`` target voxels, widened by the engine's
    :func:`~repro.core.engine.gemm_safe_block` rule so no tile is a
    one-row or one-column product (a one-voxel panel is one full-width
    tile, and no panel ends in a width-1 tile) — the condition for a
    tile to carry the bits of the same columns of the serial engine.
    Tiles are ordered row-major — panel 0's columns left to right, then
    panel 1 — which is the deterministic dispatch order of the tiled
    master loop.
    """
    if tile_cols < 1:
        raise ValueError("tile_cols must be >= 1")
    panels = partition_tasks(n_voxels, task_voxels, voxels)
    tiles: list[TileTask] = []
    for panel_id, rows in enumerate(panels):
        cols = gemm_safe_block(tile_cols, rows.size, n_voxels)
        for start, stop in iter_blocks(n_voxels, cols):
            tiles.append(
                TileTask(
                    index=len(tiles),
                    panel=panel_id,
                    rows=rows,
                    col_start=start,
                    col_stop=stop,
                )
            )
    return tiles


def partition_rows_by_nnz(
    row_nnz: NDArray[Any],
    max_nnz: int,
    max_rows: int | None = None,
) -> list[tuple[int, int]]:
    """Carve contiguous row panels balanced by ragged per-row nnz.

    The sparse stage-1/2 output has wildly uneven rows (a hub voxel can
    carry orders of magnitude more surviving correlations than a quiet
    one), so fixed-width panels make some score batches Gram far more
    stored entries than others.  This greedily packs consecutive rows
    until adding the next row would push the panel past ``max_nnz``
    stored entries (or past ``max_rows`` rows); a single row heavier
    than the budget still gets its own panel, so every row is covered
    exactly once.  No run calls it — stage 3 Grams the whole CSR result
    once and batches by ``batch_voxels`` (panels run one after another
    on one thread, so balancing them balanced nothing); it stays for the
    frozen benchmark harness.

    Returns ``(start, stop)`` half-open panels covering
    ``range(len(row_nnz))`` in order.
    """
    counts = np.asarray(row_nnz, dtype=np.int64)
    if counts.ndim != 1:
        raise ValueError(f"row_nnz must be 1D, got shape {counts.shape}")
    if counts.size and counts.min() < 0:
        raise ValueError("row_nnz entries must be >= 0")
    if max_nnz < 1:
        raise ValueError("max_nnz must be >= 1")
    if max_rows is not None and max_rows < 1:
        raise ValueError("max_rows must be >= 1")
    panels: list[tuple[int, int]] = []
    start = 0
    filled = 0
    for row in range(counts.size):
        width = row - start
        if width > 0 and (
            filled + counts[row] > max_nnz
            or (max_rows is not None and width >= max_rows)
        ):
            panels.append((start, row))
            start = row
            filled = 0
        filled += int(counts[row])
    if start < counts.size:
        panels.append((start, counts.size))
    return panels


def n_tasks(n_voxels: int, task_voxels: int) -> int:
    """Number of tasks a partition produces (``ceil(n/task_voxels)``)."""
    if n_voxels < 1:
        raise ValueError("n_voxels must be >= 1")
    return n_blocks(n_voxels, task_voxels)


def auto_chunksize(n_tasks: int, n_workers: int) -> int:
    """Tasks per worker message: ~4 chunks per worker.

    Amortizes result round-trips while keeping the last wave short
    enough that dynamic scheduling can still balance it.
    """
    if n_tasks < 1 or n_workers < 1:
        raise ValueError("n_tasks and n_workers must be >= 1")
    return max(1, n_blocks(n_tasks, n_workers * 4))

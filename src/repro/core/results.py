"""Result containers for voxel selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PanelAssembler", "VoxelScores"]


@dataclass(frozen=True)
class VoxelScores:
    """Cross-validation accuracies for a set of voxels.

    This is what a worker returns to the master and what the master
    aggregates and sorts ("the master node collects all voxels and sorts
    them by their resulting accuracies", Section 3.1.2).
    """

    #: Flat voxel indices, shape (n,).
    voxels: np.ndarray
    #: Held-out classification accuracy per voxel, shape (n,).
    accuracies: np.ndarray

    def __post_init__(self) -> None:
        if self.voxels.shape != self.accuracies.shape or self.voxels.ndim != 1:
            raise ValueError("voxels and accuracies must be 1D and equal length")
        if self.voxels.size and (
            self.accuracies.min() < 0.0 or self.accuracies.max() > 1.0
        ):
            raise ValueError("accuracies must lie in [0, 1]")

    def __len__(self) -> int:
        return self.voxels.size

    @staticmethod
    def concatenate(parts: list["VoxelScores"]) -> "VoxelScores":
        """Merge per-task results (master-side aggregation)."""
        if not parts:
            raise ValueError("nothing to concatenate")
        voxels = np.concatenate([p.voxels for p in parts])
        accs = np.concatenate([p.accuracies for p in parts])
        if np.unique(voxels).size != voxels.size:
            raise ValueError("duplicate voxel ids across task results")
        return VoxelScores(voxels=voxels, accuracies=accs)

    def sorted_by_accuracy(self) -> "VoxelScores":
        """Descending accuracy order (ties broken by voxel id)."""
        order = np.lexsort((self.voxels, -self.accuracies))
        return VoxelScores(self.voxels[order], self.accuracies[order])

    def top(self, k: int) -> "VoxelScores":
        """The ``k`` best-classifying voxels (the selected ROI)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        ranked = self.sorted_by_accuracy()
        k = min(k, len(ranked))
        return VoxelScores(ranked.voxels[:k], ranked.accuracies[:k])

    def accuracy_of(self, voxel: int) -> float:
        """Accuracy of one voxel id; raises KeyError if absent."""
        hits = np.nonzero(self.voxels == voxel)[0]
        if hits.size == 0:
            raise KeyError(f"voxel {voxel} not in results")
        return float(self.accuracies[hits[0]])


class PanelAssembler:
    """Merges 2-D stage-1/2 tiles back into full correlation row panels.

    No run path calls this any more: the tiled runtime's tiles return
    partial Grams (:mod:`repro.parallel.tiled`), so no panel is ever
    assembled.  It stays, unchanged, for the frozen benchmark harness
    (``benchmarks/e2e/layers.py``) until that is re-based.

    Under 2-D tile partitioning a row panel's normalized correlations
    ``(rows, epochs, n_voxels)`` arrive as column blocks, possibly out
    of order and from different workers.  The assembler owns one buffer
    per panel, fills column ranges as tiles land, and reports a panel
    exactly once when its last column arrives — the handoff point where
    the master turns it into a stage-3 scoring task.

    Tiles for the same column range may legally arrive twice (a worker
    presumed lost can still have delivered its result before dying);
    the duplicate bytes are identical by the tiled engine's determinism
    contract, so later writes simply overwrite earlier ones and the
    completion count only advances on first arrival.
    """

    def __init__(self, n_voxels: int, n_epochs: int):
        if n_voxels < 1 or n_epochs < 1:
            raise ValueError("n_voxels and n_epochs must be >= 1")
        self._n_voxels = n_voxels
        self._n_epochs = n_epochs
        self._buffers: dict[int, np.ndarray] = {}
        self._rows: dict[int, np.ndarray] = {}
        self._filled: dict[int, set[tuple[int, int]]] = {}
        self._expected: dict[int, int] = {}
        self._done: set[int] = set()

    def expect(self, panel: int, rows: np.ndarray, n_tiles: int) -> None:
        """Declare a panel's row ids and how many column tiles it needs."""
        if n_tiles < 1:
            raise ValueError("n_tiles must be >= 1")
        if panel in self._expected:
            raise ValueError(f"panel {panel} already declared")
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1 or rows.size == 0:
            raise ValueError("rows must be a non-empty 1D index array")
        self._expected[panel] = n_tiles
        self._rows[panel] = rows

    def add(
        self,
        panel: int,
        col_start: int,
        col_stop: int,
        block: np.ndarray,
    ) -> np.ndarray | None:
        """Place one tile; returns the full panel when it completes.

        ``block`` must be ``(rows, epochs, col_stop - col_start)``
        float32.  Returns ``None`` while columns are still missing and
        for duplicate arrivals after completion.
        """
        if panel not in self._expected:
            raise KeyError(f"panel {panel} was never declared via expect()")
        if not 0 <= col_start < col_stop <= self._n_voxels:
            raise ValueError(f"bad column range [{col_start}, {col_stop})")
        rows = self._rows[panel]
        want = (rows.size, self._n_epochs, col_stop - col_start)
        block = np.asarray(block, dtype=np.float32)
        if block.shape != want:
            raise ValueError(f"tile has shape {block.shape}, expected {want}")
        if panel in self._done:
            # A late duplicate: the panel was handed off (and possibly
            # released) already, so there is nothing left to fill.
            return None
        buf = self._buffers.get(panel)
        if buf is None:
            buf = self._buffers[panel] = np.empty(
                (rows.size, self._n_epochs, self._n_voxels), dtype=np.float32
            )
            self._filled[panel] = set()
        buf[:, :, col_start:col_stop] = block
        self._filled[panel].add((col_start, col_stop))
        if len(self._filled[panel]) < self._expected[panel]:
            return None
        self._done.add(panel)
        return buf

    def rows_of(self, panel: int) -> np.ndarray:
        """The declared row ids of a panel."""
        return self._rows[panel]

    def panel_buffer(self, panel: int) -> np.ndarray:
        """A completed panel's full ``(rows, epochs, n_voxels)`` buffer."""
        if panel not in self._done:
            raise KeyError(f"panel {panel} is not complete")
        return self._buffers[panel]

    def release(self, panel: int) -> None:
        """Drop a completed panel's buffer (after stage 3 consumed it)."""
        self._buffers.pop(panel, None)
        self._filled.pop(panel, None)

    @property
    def n_complete(self) -> int:
        return len(self._done)

    @property
    def pending_panels(self) -> list[int]:
        """Declared panels whose buffers are still incomplete."""
        return sorted(p for p in self._expected if p not in self._done)

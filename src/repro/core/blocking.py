"""Blocking plans: choosing tile sizes from cache geometry (idea #1).

The paper sizes its stage-1/2 tiles so that one thread's working set —
a ``B x B'`` correlation tile for one subject's ``E`` epochs plus the
input panels that produce it — fits its share of the 512 KB L2 cache,
with ``B'`` an integral multiple of the VPU width (ideas #1 and #3).
:func:`plan_blocks` reproduces that sizing for any
:class:`~repro.hw.spec.HardwareSpec`.

The plan is an analytic *model* of a compiled kernel on a described
machine, so no run consults it: the engine that executes here sizes its
own tiles (:class:`~repro.core.engine.GramEmitter` walks the Gram rule's
column chunks and issues each gemm at most
:func:`~repro.core.engine.gemm_block_cols` columns wide, the widest
OpenBLAS runs on one thread).  The plan is for
whoever compares that walk against the paper's sizing — the benchmark
harness, the block-size ablation, the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only: core imports no model
    from ..hw.spec import HardwareSpec

__all__ = ["BlockingPlan", "plan_blocks"]


@dataclass(frozen=True)
class BlockingPlan:
    """Tile sizes for the blocked stage-1/2 pipeline."""

    #: Assigned voxels per tile (``B`` in Fig. 5).  The tiled engine
    #: keeps all rows in a tile and scales the tile's bytes by this.
    voxel_block: int
    #: Target (brain) voxels per tile (``B'`` in Fig. 5).
    target_block: int
    #: Epochs per tile — one subject's worth for the merged pipeline.
    epoch_block: int

    def __post_init__(self) -> None:
        if min(self.voxel_block, self.target_block, self.epoch_block) < 1:
            raise ValueError("all block dimensions must be >= 1")

    def tile_bytes(self, dtype_bytes: int = 4) -> int:
        """Bytes of one output tile (B x E x B')."""
        return (
            self.voxel_block * self.epoch_block * self.target_block * dtype_bytes
        )

    def working_set_bytes(self, epoch_length: int, dtype_bytes: int = 4) -> int:
        """Tile plus the input panels needed to compute it."""
        inputs = (
            (self.voxel_block + self.target_block)
            * self.epoch_block
            * epoch_length
            * dtype_bytes
        )
        return self.tile_bytes(dtype_bytes) + inputs


def plan_blocks(
    spec: HardwareSpec,
    epochs_per_subject: int,
    epoch_length: int,
    n_assigned: int,
    n_voxels: int,
    dtype_bytes: int = 4,
    cache_fraction: float = 0.8,
) -> BlockingPlan:
    """Choose (B, B', E) tiles that fit a thread's L2 share.

    ``B'`` is rounded to a multiple of the VPU width and made as large as
    the budget allows (long contiguous runs maximize vectorization
    intensity); ``B`` then takes what is left, at least 1.  The epoch
    block is pinned to ``epochs_per_subject`` so each tile holds complete
    normalization populations for the merged stage 2.
    """
    if not 0.0 < cache_fraction <= 1.0:
        raise ValueError("cache_fraction must be in (0, 1]")
    if epochs_per_subject < 1 or epoch_length < 1:
        raise ValueError("epochs_per_subject and epoch_length must be >= 1")
    if n_assigned < 1 or n_voxels < 1:
        raise ValueError("n_assigned and n_voxels must be >= 1")

    budget = int(spec.l2_per_thread_bytes() * cache_fraction)
    width = spec.vpu_width_sp
    e = epochs_per_subject

    # Try B from a small menu (multiples of the VPU width down to 1),
    # clamped to the task size *before* budgeting so a tiny ``n_assigned``
    # still yields a right-sized plan, and pick the largest B' that keeps
    # the working set within budget.
    best: BlockingPlan | None = None
    tried: set[int] = set()
    for b in (width, width // 2, 8, 4, 2, 1):
        b = min(b, n_assigned)
        if b < 1 or b in tried:
            continue
        tried.add(b)
        # bytes(B') for the tile + input panels:
        #   tile: B*E*B' ; inputs: (B + B') * E * T
        per_target = (b * e + e * epoch_length) * dtype_bytes
        fixed = b * e * epoch_length * dtype_bytes
        max_targets = (budget - fixed) // per_target
        if max_targets < width:
            continue
        targets = min(int(max_targets) // width * width, n_voxels)
        if targets < 1:
            continue
        plan = BlockingPlan(
            voxel_block=b,
            target_block=targets,
            epoch_block=e,
        )
        if best is None or plan.target_block * plan.voxel_block > (
            best.target_block * best.voxel_block
        ):
            best = plan
    if best is None:
        # Cache too small for even one VPU-width run: degenerate plan,
        # clamped to the task like every other candidate.
        best = BlockingPlan(
            voxel_block=min(1, n_assigned),
            target_block=min(width, n_voxels),
            epoch_block=e,
        )
    return best

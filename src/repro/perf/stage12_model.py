"""Access-pattern model of the tiled stage-1/2 engine (dense emitter).

The engine (:func:`repro.core.engine.run_engine`) replaces two
Python-dispatch-bound loops:

* the blocked stage-1 loop issued one tiny ``(B, T) x (T, B')`` gemm per
  epoch per tile plus a per-tile normalization callback — the engine
  issues **one** epoch-batched gufunc matmul per tile;
* stage 2 runs on that tile before it leaves cache, so its seven
  full-tile vector passes (clip, arctanh, sum, subtract, square, sum,
  divide) are cache traffic instead of re-streaming the task from DRAM
  seven times.

What the model captures is therefore (a) **dispatch amortization** —
thousands of interpreter/BLAS fixed costs collapse to a dozen per
megabyte-sized tile — and (b) **tile residency** — whether a tile
(plus its equal-size squaring scratch) fits the thread's L2 share
decides whether the post-clip passes are cache traffic or DRAM
traffic.  The engine cuts a task by columns and keeps all rows in a
tile; the model measures the same cache unit in row-equivalents:
``voxel_sweep`` is ``V / tiles``, a slab holding as many bytes as one
column tile.  This is the quantity the block-size ablation
(``benchmarks/test_ablation_block_size.py``) measures directly; the
model explains *why* small units win and the ordering to expect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..data.presets import DatasetSpec
from ..hw.counters import PerfCounters
from ..hw.spec import HardwareSpec
from .base import KernelEstimate, calibration_for, estimate_kernel

__all__ = [
    "DISPATCH_OVERHEAD_SECONDS",
    "NORM_VECTOR_PASSES",
    "TILE_DISPATCHES",
    "BatchedStage12Shape",
    "batched_stage12_shape_for",
    "model_batched_stage12",
    "stage12_dispatch_amortization",
    "sweep_slab_bytes",
    "sweep_fits_l2",
]

#: Fixed cost of one Python-level dispatch (interpreter + BLAS setup).
#: Measured order-of-magnitude for a numpy call on the host; the KNC
#: offload analogue is far larger, which only strengthens the case.
DISPATCH_OVERHEAD_SECONDS = 5e-6

#: Full-slab vector passes of the fused normalizer: clip, arctanh,
#: sum (mean), subtract, square, sum (variance), divide.  The mean/std
#: side buffers are ``1/E`` the slab size and ignored.
NORM_VECTOR_PASSES = 7

#: Python-level dispatches per engine tile: the batched gemm, the
#: normalizer's seven vector passes and four side-buffer ops, and the
#: copy into the dense output.
TILE_DISPATCHES = 13


@dataclass(frozen=True)
class BatchedStage12Shape:
    """Shape of one task's fused stage-1/2 work."""

    n_epochs: int
    n_assigned: int  # V
    epoch_len: int   # T
    n_voxels: int    # N
    #: Cache unit in row-equivalents: ``V / tiles`` (see module docs).
    voxel_sweep: int
    #: Tile sizes of the *pre-batching* blocked loop being replaced
    #: (for the dispatch-amortization comparison).
    loop_voxel_block: int = 16
    loop_target_block: int = 512

    def __post_init__(self) -> None:
        if min(self.n_epochs, self.n_assigned, self.epoch_len, self.n_voxels) < 1:
            raise ValueError("all shape dimensions must be >= 1")
        if self.voxel_sweep < 1:
            raise ValueError("voxel_sweep must be >= 1")
        if self.loop_voxel_block < 1 or self.loop_target_block < 1:
            raise ValueError("loop block sizes must be >= 1")

    @property
    def flops(self) -> float:
        """Gemm FLOPs: one multiply-add per (epoch, v, t, n).

        The normalization adds ~``NORM_VECTOR_PASSES`` ops per output
        element — three orders of magnitude below the gemm for realistic
        ``T`` — and is accounted as memory traffic, not FLOPs.
        """
        return 2.0 * self.n_epochs * self.n_assigned * self.epoch_len * self.n_voxels

    @property
    def output_elements(self) -> float:
        """Correlation elements written (V x E x N)."""
        return float(self.n_assigned) * self.n_epochs * self.n_voxels

    @property
    def n_sweep_tiles(self) -> int:
        """Tiles the engine walks (the ``stage12_tiles`` counter)."""
        return math.ceil(self.n_assigned / self.voxel_sweep)

    @property
    def fused_dispatches(self) -> int:
        """Python-level dispatches of the engine:
        :data:`TILE_DISPATCHES` per tile."""
        return TILE_DISPATCHES * self.n_sweep_tiles

    @property
    def loop_dispatches(self) -> int:
        """Dispatches of the pre-batching loop it replaces: per tile,
        one gemm per epoch plus the normalization callback."""
        tiles = math.ceil(self.n_assigned / self.loop_voxel_block) * math.ceil(
            self.n_voxels / self.loop_target_block
        )
        return tiles * (self.n_epochs + 1)


def batched_stage12_shape_for(
    spec: DatasetSpec,
    n_assigned: int,
    voxel_sweep: int,
    loop_voxel_block: int = 16,
    loop_target_block: int = 512,
) -> BatchedStage12Shape:
    """Fused stage-1/2 shape for a task on a dataset (all epochs)."""
    return BatchedStage12Shape(
        n_epochs=spec.n_epochs,
        n_assigned=n_assigned,
        epoch_len=spec.epoch_length,
        n_voxels=spec.n_voxels,
        voxel_sweep=voxel_sweep,
        loop_voxel_block=loop_voxel_block,
        loop_target_block=loop_target_block,
    )


def stage12_dispatch_amortization(shape: BatchedStage12Shape) -> float:
    """How many loop dispatches one fused dispatch replaces.

    Overhead seconds saved per task are
    ``(loop_dispatches - fused_dispatches) * DISPATCH_OVERHEAD_SECONDS``.
    """
    return shape.loop_dispatches / shape.fused_dispatches


def sweep_slab_bytes(shape: BatchedStage12Shape, dtype_bytes: int = 4) -> int:
    """Live bytes of one cache unit: a tile as large as a ``(sweep, E,
    N)`` slab plus the equal-size squaring scratch the workspace holds."""
    slab = shape.voxel_sweep * shape.n_epochs * shape.n_voxels * dtype_bytes
    return 2 * slab


def sweep_fits_l2(
    shape: BatchedStage12Shape, hw: HardwareSpec, cache_fraction: float = 0.8
) -> bool:
    """Whether a tile stays resident in one thread's L2 share.

    This is the knee the block-size ablation finds empirically: below
    it the six post-clip passes run at cache bandwidth, above it each
    pass re-streams the slab from DRAM.
    """
    if not 0.0 < cache_fraction <= 1.0:
        raise ValueError("cache_fraction must be in (0, 1]")
    budget = int(hw.l2_per_thread_bytes() * cache_fraction)
    return sweep_slab_bytes(shape) <= budget


def model_batched_stage12(
    spec: DatasetSpec,
    n_assigned: int,
    hw: HardwareSpec,
    voxel_sweep: int,
) -> KernelEstimate:
    """Model the fused batched stage 1/2 for one task.

    Miss accounting (lines of ``hw.l2.line_bytes``):

    * gemm: output write-allocate + one streaming read of B + A — all
      rows sit in every tile, so B is read exactly once and the blocked
      path's per-voxel-block B re-reads disappear (no remote-L2 term);
    * normalization: one read+write pass over C always (clip/arctanh);
      the remaining :data:`NORM_VECTOR_PASSES` - 1 passes are free when
      the tile fits L2 (:func:`sweep_fits_l2`), else each re-streams C
      from DRAM.

    The estimate's time excludes Python dispatch cost; add
    ``shape.fused_dispatches * DISPATCH_OVERHEAD_SECONDS`` (versus
    ``shape.loop_dispatches`` for the loop) for end-to-end comparisons.
    """
    shape = batched_stage12_shape_for(spec, n_assigned, voxel_sweep)
    line_elems = hw.elements_per_line()
    c_lines = shape.output_elements / line_elems
    b_lines = float(shape.n_epochs) * shape.n_voxels * shape.epoch_len / line_elems
    a_lines = float(shape.n_epochs) * shape.n_assigned * shape.epoch_len / line_elems

    dram = c_lines + b_lines + a_lines
    # Normalization: first pass re-reads + rewrites C.
    dram += 2.0 * c_lines
    if not sweep_fits_l2(shape, hw):
        dram += 2.0 * (NORM_VECTOR_PASSES - 1) * c_lines

    calib = calibration_for("matmul/ours/corr", hw)
    refs = shape.flops * calib.refs_per_flop
    vpu = shape.flops / (2.0 * calib.vi)
    counters = PerfCounters(
        mem_reads=refs * 0.5,
        mem_writes=refs * 0.5,
        l2_misses=dram,
        l2_remote_hits=0.0,
        flops=shape.flops,
        vpu_instructions=vpu,
        vector_elements=vpu * calib.vi,
        scalar_instructions=refs * calib.instr_per_ref,
    )
    return estimate_kernel("matmul/ours/corr-batched", hw, counters, calib)

"""Access-pattern model of the sparse thresholded stage-1/2 engine.

The sparse engine (:class:`repro.core.sparse.CSREmitter` under ``run_engine``)
keeps the fused batched tile pipeline of :mod:`repro.perf.stage12_model`
but filters every ``(sweep, E, target_block)`` tile *while it is still
L2-resident*, emitting only the surviving entries as CSR fragments.  The
dense ``V x E x N`` correlation buffer — the term that dominates DRAM
traffic and memory footprint at scale — never exists.

What changes relative to the dense model is therefore purely the memory
side; the gemm FLOPs are identical (every correlation is still computed
before the filter discards it):

* the output write-allocate + re-read terms shrink from the full dense
  buffer to ``density x elements`` CSR bytes (value + column index per
  kept entry, plus the assembly sort's extra passes);
* the B operand is re-streamed once per voxel slab (the tile loop walks
  all N columns per slab) instead of exactly once;
* when a tile (plus its normalization scratch) does *not* fit L2, the
  filter degrades to dense traffic: the tile spills and is re-read.

At realistic densities (~1%) the kernel drops well below the machine's
ridge intensity: same FLOPs over far fewer DRAM bytes moves the *cost*
down but moves the roofline placement deeper into the memory-bound
regime, because what little traffic remains (B re-streams, CSR
assembly) has almost no FLOPs of its own.  :func:`density_sweep` and
:func:`dense_crossover_density` quantify when the dense engine is the
better choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..data.presets import DatasetSpec
from ..hw.counters import PerfCounters
from ..hw.spec import HardwareSpec
from .base import KernelEstimate, calibration_for, estimate_kernel
from .stage12_model import model_batched_stage12

__all__ = [
    "CSR_ASSEMBLY_PASSES",
    "CSR_BYTES_PER_ENTRY",
    "SparseStage12Shape",
    "dense_crossover_density",
    "density_sweep",
    "format_density_sweep",
    "model_sparse_stage12",
    "sparse_stage12_shape_for",
    "tile_bytes",
    "tile_fits_l2",
]

#: Bytes stored per kept entry: float32 value + int32 column index.
#: The int64 ``indptr`` is one entry per *row* (``V x E`` of them), three
#: orders of magnitude below nnz at realistic densities, and ignored.
CSR_BYTES_PER_ENTRY = 8

#: Full passes over the fragment arrays during CSR assembly, tau mode:
#: the stable row sort's key read, the gather of (indices, data) through
#: the permutation, and the final write of the assembled arrays.  Top-k
#: sweeps arrive row-major and skip the sort; what they walk instead is
#: the merge select over the tiles' candidate blocks (up to ``n_tiles``
#: times the kept entries), which this traffic model does not count.
CSR_ASSEMBLY_PASSES = 3


@dataclass(frozen=True)
class SparseStage12Shape:
    """Shape of one task's sparse fused stage-1/2 work."""

    n_epochs: int
    n_assigned: int  # V
    epoch_len: int   # T
    n_voxels: int    # N
    #: Voxel-slab width of the tile loop (``BlockingPlan.voxel_block``).
    voxel_sweep: int
    #: Target-column width of the tile loop.
    target_block: int
    #: Kept fraction of the dense output, in [0, 1].  Exact for top-k
    #: mode (``k / n_voxels``); measured or quantile-estimated for tau.
    density: float

    def __post_init__(self) -> None:
        if min(self.n_epochs, self.n_assigned, self.epoch_len, self.n_voxels) < 1:
            raise ValueError("all shape dimensions must be >= 1")
        if self.voxel_sweep < 1 or self.target_block < 1:
            raise ValueError("voxel_sweep and target_block must be >= 1")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError(f"density must be in [0, 1], got {self.density}")

    @property
    def flops(self) -> float:
        """Gemm FLOPs — identical to the dense engine's: the filter
        discards entries *after* they are computed."""
        return 2.0 * self.n_epochs * self.n_assigned * self.epoch_len * self.n_voxels

    @property
    def elements(self) -> float:
        """Dense correlation elements scanned (V x E x N)."""
        return float(self.n_assigned) * self.n_epochs * self.n_voxels

    @property
    def kept(self) -> float:
        """Entries surviving the filter (the CSR nnz)."""
        return self.density * self.elements

    @property
    def n_slabs(self) -> int:
        """Voxel slabs of the outer tile loop."""
        return math.ceil(self.n_assigned / self.voxel_sweep)

    @property
    def n_tiles(self) -> int:
        """Tiles visited (the ``stage12_tiles`` counter)."""
        return self.n_slabs * math.ceil(self.n_voxels / self.target_block)


def sparse_stage12_shape_for(
    spec: DatasetSpec,
    n_assigned: int,
    voxel_sweep: int,
    target_block: int,
    density: float,
) -> SparseStage12Shape:
    """Sparse stage-1/2 shape for a task on a dataset (all epochs)."""
    return SparseStage12Shape(
        n_epochs=spec.n_epochs,
        n_assigned=n_assigned,
        epoch_len=spec.epoch_length,
        n_voxels=spec.n_voxels,
        voxel_sweep=voxel_sweep,
        target_block=target_block,
        density=density,
    )


def tile_bytes(shape: SparseStage12Shape, dtype_bytes: int = 4) -> int:
    """Live bytes of one tile: the ``(sweep, E, target_block)`` gemm
    output plus the equal-size normalization scratch."""
    tile = shape.voxel_sweep * shape.n_epochs * shape.target_block * dtype_bytes
    return 2 * tile


def tile_fits_l2(
    shape: SparseStage12Shape, hw: HardwareSpec, cache_fraction: float = 0.8
) -> bool:
    """Whether a tile stays resident in one thread's L2 share.

    This is the sparse engine's analogue of the dense model's
    ``sweep_fits_l2`` knee: a resident tile is normalized and filtered
    entirely in cache, so the dense tile never touches DRAM; a spilled
    tile degrades to dense write + re-read traffic.
    """
    if not 0.0 < cache_fraction <= 1.0:
        raise ValueError("cache_fraction must be in (0, 1]")
    budget = int(hw.l2_per_thread_bytes() * cache_fraction)
    return tile_bytes(shape) <= budget


def model_sparse_stage12(
    spec: DatasetSpec,
    n_assigned: int,
    hw: HardwareSpec,
    voxel_sweep: int,
    target_block: int,
    density: float,
) -> KernelEstimate:
    """Model the sparse fused stage 1/2 for one task.

    Miss accounting (lines of ``hw.l2.line_bytes``):

    * gemm operands: A read once; B re-streamed once per voxel slab
      (the inner tile loop walks all N columns for every slab);
    * CSR output: ``kept x CSR_BYTES_PER_ENTRY`` bytes written once by
      the filter, then re-walked :data:`CSR_ASSEMBLY_PASSES` times by
      the fragment sort/gather/write of the final assembly;
    * degradation: when a tile does not fit L2
      (:func:`tile_fits_l2`), the dense tile spills — add the dense
      write-allocate + re-read traffic over all elements.

    The FLOP and reference counters are the dense engine's (same gemm,
    same calibration family), so the estimate is directly comparable to
    :func:`~repro.perf.stage12_model.model_batched_stage12`.
    """
    shape = sparse_stage12_shape_for(
        spec, n_assigned, voxel_sweep, target_block, density
    )
    line_elems = hw.elements_per_line()
    line_bytes = hw.l2.line_bytes
    a_lines = float(shape.n_epochs) * shape.n_assigned * shape.epoch_len / line_elems
    b_lines = (
        float(shape.n_epochs) * shape.n_voxels * shape.epoch_len / line_elems
    ) * shape.n_slabs
    csr_bytes = shape.kept * CSR_BYTES_PER_ENTRY
    csr_lines = (1 + CSR_ASSEMBLY_PASSES) * csr_bytes / line_bytes

    dram = a_lines + b_lines + csr_lines
    if not tile_fits_l2(shape, hw):
        dram += 2.0 * shape.elements / line_elems

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
    return estimate_kernel("matmul/ours/corr-sparse", hw, counters, calib)


#: Default density grid for sweeps and crossover reports.
DEFAULT_DENSITIES = (0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)


def density_sweep(
    spec: DatasetSpec,
    n_assigned: int,
    hw: HardwareSpec,
    voxel_sweep: int,
    target_block: int,
    densities: Sequence[float] = DEFAULT_DENSITIES,
) -> list[tuple[float, float, float]]:
    """``(density, sparse_seconds, dense_seconds)`` over a density grid.

    The dense comparator is the fused batched engine at the same sweep
    width; its cost does not depend on density, so the column is
    constant — it is repeated per row to keep each tuple standalone.
    """
    dense_seconds = model_batched_stage12(spec, n_assigned, hw, voxel_sweep).seconds
    rows: list[tuple[float, float, float]] = []
    for density in densities:
        sparse = model_sparse_stage12(
            spec, n_assigned, hw, voxel_sweep, target_block, density
        )
        rows.append((density, sparse.seconds, dense_seconds))
    return rows


def dense_crossover_density(
    spec: DatasetSpec,
    n_assigned: int,
    hw: HardwareSpec,
    voxel_sweep: int,
    target_block: int,
    iterations: int = 40,
) -> float | None:
    """The density above which the dense engine is modeled faster.

    Bisects the (monotone-in-density) sparse cost against the constant
    dense cost.  Returns ``None`` when the sparse engine wins even at
    density 1.0 — it then does strictly less DRAM work at every density,
    which happens when the dense engine's full-buffer normalization
    passes dominate.  Returns 0.0 when dense wins everywhere (spilled
    tiles: the sparse engine pays dense traffic *plus* CSR assembly).
    """

    def sparse_seconds(density: float) -> float:
        return model_sparse_stage12(
            spec, n_assigned, hw, voxel_sweep, target_block, density
        ).seconds

    dense_seconds = model_batched_stage12(spec, n_assigned, hw, voxel_sweep).seconds
    if sparse_seconds(1.0) <= dense_seconds:
        return None
    if sparse_seconds(0.0) >= dense_seconds:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if sparse_seconds(mid) <= dense_seconds:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def format_density_sweep(
    rows: Sequence[tuple[float, float, float]],
    *,
    crossover: float | None = None,
    measured: tuple[float, float] | None = None,
) -> str:
    """Fixed-width density-sweep table.

    Columns: density, predicted sparse seconds, predicted dense seconds,
    and the modeled dense/sparse speedup.  ``measured`` marks the row
    nearest a measured ``(density, wall_seconds)`` pair with the actual
    number; ``crossover`` appends the modeled break-even density.
    """
    lines = [
        f"{'density':>8} {'sparse_s':>10} {'dense_s':>10} "
        f"{'speedup':>8} {'measured_s':>10}"
    ]
    nearest = -1
    if measured is not None and rows:
        nearest = min(
            range(len(rows)), key=lambda i: abs(rows[i][0] - measured[0])
        )
    for i, (density, sparse_s, dense_s) in enumerate(rows):
        speedup = dense_s / sparse_s if sparse_s > 0 else float("inf")
        measured_col = (
            f"{measured[1]:>10.3f}"
            if measured is not None and i == nearest
            else f"{'-':>10}"
        )
        lines.append(
            f"{density:>8.4f} {sparse_s:>10.3f} {dense_s:>10.3f} "
            f"{speedup:>7.2f}x {measured_col}"
        )
    if crossover is None:
        lines.append("crossover: none (sparse modeled faster at every density)")
    else:
        lines.append(
            f"crossover: dense engine modeled faster above "
            f"density {crossover:.3f}"
        )
    return "\n".join(lines)

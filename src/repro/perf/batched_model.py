"""Access-pattern model of the *batched* stage-3a kernel syrk.

The batched kernel (:func:`repro.core.kernels.kernel_matrix_batched`)
computes all ``B`` voxel kernels of a stage-3 block in one stacked GEMM
``(B, M, N) @ (B, N, M)`` instead of ``B`` separate ``(M, N) @ (N, M)``
calls.  The arithmetic and the DRAM traffic are identical to ``B``
per-voxel syrks — each A panel is still read once, each C triangle
written once — so what the model captures is what batching actually
changes:

* **dispatch amortization** — the per-call fixed cost (interpreter,
  BLAS setup, thread wake-up) is paid once per *stacked* call instead of
  once per voxel.  On KNC this is the paper's motivation for keeping
  "240+ voxel problems resident": tiny M x M problems cannot amortize
  offload overhead individually.
* **residency** — one dispatch holds a batch's ``B x M x N`` inputs and
  its ``B x M x M`` output block; the largest batch whose working set
  still fits the cache (:func:`max_resident_batch`) is a principled
  ceiling for ``batch_voxels``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..data.presets import DatasetSpec
from ..hw.counters import PerfCounters
from ..hw.spec import HardwareSpec
from .base import KernelEstimate, calibration_for, estimate_kernel
from .matmul_model import SyrkShape, syrk_shape_for

__all__ = [
    "BatchedSyrkShape",
    "DISPATCH_OVERHEAD_SECONDS",
    "batched_syrk_shape_for",
    "dispatch_amortization",
    "max_resident_batch",
    "model_batched_syrk",
]

#: Fixed cost of one stacked-GEMM dispatch (interpreter + BLAS setup).
#: Measured order-of-magnitude for a numpy matmul call on the host; the
#: KNC offload analogue is far larger, which only strengthens the case.
DISPATCH_OVERHEAD_SECONDS = 5e-6


@dataclass(frozen=True)
class BatchedSyrkShape:
    """Shape of one task's stage-3a work under batched dispatch."""

    #: Total voxel problems in the task.
    n_problems: int
    #: Training epochs (kernel matrix is m x m).
    m: int
    #: Brain voxels (the long reduction dimension).
    n: int
    #: Voxel problems per stacked GEMM call.
    batch: int

    def __post_init__(self) -> None:
        if self.n_problems < 1 or self.m < 1 or self.n < 1:
            raise ValueError("n_problems, m, n must all be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")

    @property
    def as_syrk(self) -> SyrkShape:
        """The equivalent per-voxel shape (arithmetic is identical)."""
        return SyrkShape(n_problems=self.n_problems, m=self.m, n=self.n)

    @property
    def flops(self) -> float:
        """Triangle-only FLOPs — batching does not change arithmetic."""
        return self.as_syrk.flops

    @property
    def n_batches(self) -> int:
        """Stacked GEMM groups the task splits into."""
        return math.ceil(self.n_problems / self.batch)

    @property
    def dispatches(self) -> int:
        """GEMM dispatches the batched driver issues (one per batch)."""
        return self.n_batches

    @property
    def dispatches_per_voxel_path(self) -> int:
        """GEMM dispatches the per-voxel reference driver issues."""
        return self.n_problems

    @property
    def batch_a_bytes(self) -> int:
        """Input bytes of one full batch's data matrices (float32)."""
        return 4 * self.batch * self.m * self.n

    @property
    def batch_c_bytes(self) -> int:
        """Output bytes of one batch's kernel matrices (float32)."""
        return 4 * self.batch * self.m * self.m

    @property
    def working_set_bytes(self) -> int:
        """Bytes live during one dispatch: the batch's A and C blocks."""
        return self.batch_a_bytes + self.batch_c_bytes


def batched_syrk_shape_for(
    spec: DatasetSpec, n_assigned: int, batch: int
) -> BatchedSyrkShape:
    """Batched stage-3a shape for a task on a dataset (LOSO training)."""
    base = syrk_shape_for(spec, n_assigned)
    return BatchedSyrkShape(
        n_problems=base.n_problems, m=base.m, n=base.n, batch=batch
    )


def dispatch_amortization(shape: BatchedSyrkShape) -> float:
    """How many per-voxel dispatches one batched dispatch replaces.

    Equals the effective batch size: overhead seconds saved per task are
    ``(dispatches_per_voxel_path - dispatches) * DISPATCH_OVERHEAD_SECONDS``.
    """
    return shape.dispatches_per_voxel_path / shape.dispatches


def max_resident_batch(hw: HardwareSpec, m: int, n: int) -> int:
    """Largest batch whose per-dispatch working set stays cache-resident.

    One problem holds its ``m x n`` input and ``m x m`` output.  Uses
    the LLC when the machine has one (host), else the aggregate L2 (KNC
    keeps a task's working set distributed across the ring).
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if hw.llc is not None:
        capacity = hw.llc.size_bytes
    else:
        capacity = hw.l2.size_bytes * hw.cores
    per_problem = 4 * (m * n + m * m)
    return max(1, capacity // per_problem)


def model_batched_syrk(
    spec: DatasetSpec, n_assigned: int, hw: HardwareSpec, batch: int
) -> KernelEstimate:
    """Model the batched stage-3a kernel precompute for one task.

    DRAM accounting matches the optimized per-voxel syrk — A read once,
    C written once.  The returned estimate's time excludes the dispatch
    fixed cost; add ``shape.dispatches * DISPATCH_OVERHEAD_SECONDS`` for
    end-to-end driver comparisons (kept separate because it is a
    host-side cost, not a kernel cost).
    """
    syrk = batched_syrk_shape_for(spec, n_assigned, batch).as_syrk
    line_elems = hw.elements_per_line()
    a_lines = syrk.n_problems * syrk.a_elements / line_elems
    c_lines = syrk.output_elements / line_elems
    dram = a_lines + c_lines

    calib = calibration_for("matmul/ours/syrk", hw)
    refs = syrk.flops * calib.refs_per_flop
    vpu = syrk.flops / (2.0 * calib.vi)
    counters = PerfCounters(
        mem_reads=refs * 0.98,
        mem_writes=refs * 0.02,
        l2_misses=dram,
        flops=syrk.flops,
        vpu_instructions=vpu,
        vector_elements=vpu * calib.vi,
        scalar_instructions=refs * calib.instr_per_ref,
    )
    return estimate_kernel("matmul/ours/syrk-batched", hw, counters, calib)

"""Access-pattern model of the closed loop's per-epoch feedback kernel.

At each epoch boundary of the feedback phase, the rtfmri loop
correlates the classifier's ``V`` selected voxels with the whole brain
over the completed epoch's ``(N, T)`` window: one equation-2 gemm of
``2*V*T*N`` FLOPs (the ``incremental_epoch_close`` kernel span).  A TR
that closes no epoch only buffers its volume, so this is the feedback
phase's one modelled kernel.

The estimate shares the machine model and calibration family of the
batch engine, so it is directly comparable to
:func:`~repro.perf.stage12_model.model_batched_stage12` and lands on the
same roofline axes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.counters import PerfCounters
from ..hw.spec import HardwareSpec
from .base import KernelEstimate, calibration_for, estimate_kernel

__all__ = [
    "IncrementalStepShape",
    "model_incremental_epoch_close",
]


@dataclass(frozen=True)
class IncrementalStepShape:
    """Shape of one feedback epoch for a bound classifier."""

    n_assigned: int    # V — selected voxel rows
    n_voxels: int      # N — brain size
    epoch_len: int     # T — TRs in the completed epoch

    def __post_init__(self) -> None:
        if min(self.n_assigned, self.n_voxels, self.epoch_len) < 1:
            raise ValueError("all shape dimensions must be >= 1")

    @property
    def plane_elements(self) -> float:
        """Elements of one ``(V, N)`` correlation plane."""
        return float(self.n_assigned) * self.n_voxels

    @property
    def epoch_close_flops(self) -> float:
        """Gemm FLOPs of closing one epoch (the batch kernel's count)."""
        return 2.0 * self.n_assigned * self.epoch_len * self.n_voxels


def model_incremental_epoch_close(
    shape: IncrementalStepShape, hw: HardwareSpec
) -> KernelEstimate:
    """Model the epoch-boundary plane: one full-width batch gemm.

    The closed epoch's ``(N, T)`` window is equation-2-normalized and
    multiplied against the ``V`` selected rows — the same kernel and
    calibration as the offline batch engine, at single-epoch depth.
    Operands stream once; the plane is written once (write-allocate).
    """
    line_elems = hw.elements_per_line()
    a_lines = float(shape.n_assigned) * shape.epoch_len / line_elems
    b_lines = float(shape.n_voxels) * shape.epoch_len / line_elems
    out_lines = 2.0 * shape.plane_elements / line_elems
    dram = a_lines + b_lines + out_lines

    calib = calibration_for("matmul/ours/corr", hw)
    flops = shape.epoch_close_flops
    refs = flops * calib.refs_per_flop
    vpu = flops / (2.0 * calib.vi)
    counters = PerfCounters(
        mem_reads=refs * 0.5,
        mem_writes=refs * 0.5,
        l2_misses=dram,
        l2_remote_hits=0.0,
        flops=flops,
        vpu_instructions=vpu,
        vector_elements=vpu * calib.vi,
        scalar_instructions=refs * calib.instr_per_ref,
    )
    return estimate_kernel("incremental/epoch-close", hw, counters, calib)

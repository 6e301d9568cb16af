"""Access-pattern model of the incremental (streaming) stage-1/2 engine.

The streaming engine (:class:`repro.core.incremental.IncrementalEmitter`)
splits each feedback-phase TR into two very different kernels:

* **Per-TR update** — fold one volume into the running sums and refresh
  the in-progress epoch's Pearson plane from them: a rank-1 update of
  the ``(V, N)`` float64 cross-product accumulator plus a fixed number
  of elementwise passes over same-size scratch.  ``O(V*N)`` work and
  bytes, *independent of how many TRs the epoch already holds* — this
  is the flat step cost the paper's interactive-latency motivation
  (PAPERS.md) asks for.
* **Epoch close** — at each epoch boundary the closed window goes
  through the engine's full-width batch gemm once (``2*V*T*N`` FLOPs),
  producing the plane that is bitwise-equal to an offline recompute.

The comparison target is what a naive loop would do on *every* TR to
keep its state current: run batch stage 1/2 over the whole retained
window from scratch (``model_full_recompute_step``).  Its cost scales
with the window depth ``W`` while the incremental update stays flat, so
the modeled median-step speedup (``incremental_speedup``) is the
model-side counterpart of the measured >= 5x floor of
``benchmarks/test_incremental_stage12.py``.

All three estimates share the machine model and calibration family of
the batch engine, so they are directly comparable to
:func:`~repro.perf.stage12_model.model_batched_stage12` and land on the
same roofline axes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..data.presets import DatasetSpec
from ..hw.counters import PerfCounters
from ..hw.spec import HardwareSpec
from .base import KernelEstimate, calibration_for, estimate_kernel
from .stage12_model import model_batched_stage12

__all__ = [
    "ACCUMULATOR_BYTES",
    "TR_UPDATE_FLOPS_PER_ELEMENT",
    "TR_UPDATE_PASSES",
    "IncrementalStepShape",
    "amortized_step_seconds",
    "incremental_speedup",
    "incremental_step_shape_for",
    "model_full_recompute_step",
    "model_incremental_epoch_close",
    "model_incremental_tr_update",
]

#: The running-sum accumulators are float64 (the emitter keeps the
#: rank-1 updates in double so thousands of TRs do not drift).
ACCUMULATOR_BYTES = 8

#: Full ``(V, N)`` array passes per TR: the rank-1 outer-product write,
#: the cross-accumulator read+update (2), and the partial-correlation
#: refresh's numerator/denominator/mask/divide/clip/copy chain (6).
TR_UPDATE_PASSES = 9

#: FLOPs per ``(V, N)`` element per TR: multiply+add of the rank-1
#: update plus the ~6 arithmetic ops of the closed-form Pearson
#: refresh (scale, two subtractions, sqrt, divide, clip).
TR_UPDATE_FLOPS_PER_ELEMENT = 8.0


@dataclass(frozen=True)
class IncrementalStepShape:
    """Shape of one streaming step for a bound task."""

    n_assigned: int    # V — selected voxel rows
    n_voxels: int      # N — brain size
    epoch_len: int     # T — TRs per epoch at the boundary
    window_epochs: int  # W — planes retained in the sliding window

    def __post_init__(self) -> None:
        if min(self.n_assigned, self.n_voxels, self.epoch_len) < 1:
            raise ValueError("all shape dimensions must be >= 1")
        if self.window_epochs < 1:
            raise ValueError("window_epochs must be >= 1")

    @property
    def plane_elements(self) -> float:
        """Elements of one ``(V, N)`` correlation plane."""
        return float(self.n_assigned) * self.n_voxels

    @property
    def tr_update_flops(self) -> float:
        """FLOPs of one per-TR running-sum update + partial refresh."""
        return TR_UPDATE_FLOPS_PER_ELEMENT * self.plane_elements

    @property
    def epoch_close_flops(self) -> float:
        """Gemm FLOPs of closing one epoch (the batch kernel's count)."""
        return 2.0 * self.n_assigned * self.epoch_len * self.n_voxels

    @property
    def accumulator_bytes(self) -> float:
        """Resident float64 running-sum state (the per-TR working set)."""
        return self.plane_elements * ACCUMULATOR_BYTES


def incremental_step_shape_for(
    spec: DatasetSpec,
    n_assigned: int,
    window_epochs: int | None = None,
) -> IncrementalStepShape:
    """Streaming step shape for a classifier task on a dataset."""
    return IncrementalStepShape(
        n_assigned=n_assigned,
        n_voxels=spec.n_voxels,
        epoch_len=spec.epoch_length,
        window_epochs=window_epochs if window_epochs else spec.n_epochs,
    )


def model_incremental_tr_update(
    shape: IncrementalStepShape, hw: HardwareSpec
) -> KernelEstimate:
    """Model one per-TR streaming update (``push_tr`` + partial refresh).

    Miss accounting: the ``(V, N)`` float64 accumulators far exceed one
    thread's L2 share at any realistic brain size, so every pass
    streams from DRAM — :data:`TR_UPDATE_PASSES` lines over
    :attr:`~IncrementalStepShape.accumulator_bytes`, plus the per-voxel
    sum/sum-of-squares vectors (4 passes of ``N`` doubles).  The
    elementwise chain has no gemm, so the norm calibration family (not
    the matmul one) supplies instruction mix and latency hiding.
    """
    line_bytes = hw.l2.line_bytes
    plane_lines = shape.accumulator_bytes / line_bytes
    vector_lines = 4.0 * shape.n_voxels * ACCUMULATOR_BYTES / line_bytes
    dram = TR_UPDATE_PASSES * plane_lines + vector_lines

    calib = calibration_for("norm/merged", hw)
    flops = shape.tr_update_flops
    refs = 2.0 * TR_UPDATE_PASSES * shape.plane_elements  # read+write/pass
    vpu = flops / calib.vi
    counters = PerfCounters(
        mem_reads=refs * 0.5,
        mem_writes=refs * 0.5,
        l2_misses=dram,
        l2_remote_hits=0.0,
        flops=flops,
        vpu_instructions=vpu,
        vector_elements=flops,
        scalar_instructions=refs * calib.instr_per_ref,
    )
    return estimate_kernel("incremental/tr-update", hw, counters, calib)


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


def model_full_recompute_step(
    shape: IncrementalStepShape, hw: HardwareSpec
) -> KernelEstimate:
    """Model the naive per-TR alternative: batch stage 1/2 on the window.

    What the pre-refactor feedback loop paid to keep its state current:
    re-normalize and recompute the dense ``V x W x N`` correlation stack
    over *all* retained epochs on every incoming TR — the batch engine
    (:func:`~repro.perf.stage12_model.model_batched_stage12`) at full
    sweep width, over a single-subject window of ``W`` epochs.  Its cost
    scales with the window; the incremental update's does not, which is
    the whole argument for streaming.
    """
    spec = DatasetSpec(
        name="incremental-window",
        n_voxels=shape.n_voxels,
        n_subjects=1,
        n_epochs=shape.window_epochs,
        epoch_length=shape.epoch_len,
    )
    return model_batched_stage12(spec, shape.n_assigned, hw, shape.n_assigned)


def incremental_speedup(
    shape: IncrementalStepShape, hw: HardwareSpec
) -> float:
    """Modeled median-step speedup of streaming over naive recompute.

    Both step costs are flat across an epoch (the incremental update by
    construction, the naive recompute because the window dominates the
    in-progress TRs), so the median ratio is just the ratio of the two
    models.  This is the model-side counterpart of the measured >= 5x
    floor of ``benchmarks/test_incremental_stage12.py``: the model
    should predict comfortably above it at any realistic window.
    """
    naive = model_full_recompute_step(shape, hw)
    step = model_incremental_tr_update(shape, hw)
    if step.seconds <= 0:
        return float("inf")
    return naive.seconds / step.seconds


def amortized_step_seconds(
    shape: IncrementalStepShape, hw: HardwareSpec
) -> float:
    """Modeled per-TR cost with the boundary gemm amortized in.

    ``T - 1`` flat updates plus one epoch close per epoch; this is the
    quantity to compare against a scanner's TR budget when gating p99
    (the close lands on one TR, so p99 tracks the close itself once
    epochs are longer than ~100 TRs).
    """
    update = model_incremental_tr_update(shape, hw).seconds
    close = model_incremental_epoch_close(shape, hw).seconds
    return update + close / shape.epoch_len

"""Whole-task performance model: the three stages composed.

Aggregates the per-kernel models into the quantities the paper's
system-level results are built from:

* per-task and per-voxel times for the baseline and optimized
  implementations on either machine (Figs. 9-11);
* the per-task seconds that drive the cluster simulator (Tables 3-4);
* the cost of one walk over a column range (:func:`model_walk`): the
  optimized task's stage 1/2 + kernel precompute, which is what a walk
  span enriches with and what a tile item of the tiled workload costs.

Task sizing reproduces Section 5.4.1: the baseline can only hold the
full correlation data of a task in the coprocessor's ~6 GB (120 voxels
for face-scene, 60 for attention), while the optimized pipeline reduces
to kernel matrices portion-by-portion and takes 240 voxels.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..data.presets import DatasetSpec
from ..hw.counters import PerfCounters
from ..hw.spec import HardwareSpec
from .base import KernelEstimate
from .matmul_model import model_correlation_matmul, model_kernel_syrk
from .norm_model import model_normalization
from .svm_model import model_svm_cv

__all__ = [
    "TaskEstimate",
    "baseline_task_voxels",
    "OPTIMIZED_TASK_VOXELS",
    "model_task",
    "model_walk",
    "per_voxel_seconds",
    "offline_task_seconds",
    "online_task_seconds",
]

#: The optimized pipeline accumulates at least one kernel matrix per
#: hardware thread before cross-validating (Section 4.4).
OPTIMIZED_TASK_VOXELS = 240


def baseline_task_voxels(
    spec: DatasetSpec, hw: HardwareSpec, memory_headroom: float = 0.6
) -> int:
    """Largest voxel count whose correlation data fits usable DRAM.

    One voxel's correlation vectors occupy ``n_epochs x n_voxels``
    floats; only ``memory_headroom`` of usable DRAM is budgeted for them
    (the rest holds the input epoch data, kernel matrices, and runtime
    buffers — the paper quotes 8.3 GB total for 240 face-scene voxels
    whose raw vectors are 7.2 GB).  Rounded down to a multiple of 60
    (the paper's task granularity), minimum 60; reproduces 120
    (face-scene) and 60 (attention) on the 5110P.
    """
    if not 0.0 < memory_headroom <= 1.0:
        raise ValueError("memory_headroom must be in (0, 1]")
    bytes_per_voxel = spec.n_epochs * spec.n_voxels * 4
    limit = int(hw.usable_dram_bytes * memory_headroom // bytes_per_voxel)
    return max(60, (limit // 60) * 60)


@dataclass(frozen=True)
class TaskEstimate:
    """Stage-by-stage model of one worker task."""

    variant: str
    n_voxels_task: int
    correlation: KernelEstimate
    normalization: KernelEstimate
    kernel_precompute: KernelEstimate
    svm: KernelEstimate

    @property
    def stages(self) -> dict[str, KernelEstimate]:
        """Stage name -> estimate."""
        return {
            "correlation": self.correlation,
            "normalization": self.normalization,
            "kernel_precompute": self.kernel_precompute,
            "svm": self.svm,
        }

    @property
    def seconds(self) -> float:
        """Total task time."""
        return sum(e.seconds for e in self.stages.values())

    @property
    def seconds_per_voxel(self) -> float:
        """Per-voxel time — the paper's Fig. 9 normalization."""
        return self.seconds / self.n_voxels_task


def _walk_stages(
    spec: DatasetSpec, rows: int, hw: HardwareSpec
) -> tuple[KernelEstimate, KernelEstimate, KernelEstimate]:
    """The optimized walk at full width: blocked gemm, merged
    normalization, blocked kernel syrk."""
    return (
        model_correlation_matmul(spec, rows, hw, "ours"),
        model_normalization(spec, rows, hw, "merged"),
        model_kernel_syrk(spec, rows, hw, "ours"),
    )


def model_walk(
    spec: DatasetSpec, rows: int, cols: int, hw: HardwareSpec
) -> tuple[PerfCounters, float]:
    """Counters + seconds of one walk of ``rows`` assigned voxels over
    ``cols`` target columns: fused correlate+normalize, then the Gram of
    what it computed.

    The linear kernel is additive over columns, so a walk over a column
    range costs that fraction of the full-width stages — the same
    first-principles counters, scaled by ``cols / N``.  At full width it
    is an optimized task's stages 1-2 + kernel precompute.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    if cols > spec.n_voxels:
        raise ValueError("cols cannot exceed the dataset's voxel count")
    frac = cols / spec.n_voxels
    matmul, norm, syrk = _walk_stages(spec, rows, hw)
    counters = (matmul.counters + norm.counters + syrk.counters).scaled(frac)
    seconds = (matmul.seconds + norm.seconds + syrk.seconds) * frac
    return counters, seconds


def model_task(
    spec: DatasetSpec,
    hw: HardwareSpec,
    variant: str = "optimized",
    n_voxels_task: int | None = None,
) -> TaskEstimate:
    """Model one worker task end to end.

    ``variant`` picks the implementation bundle: ``"baseline"`` = MKL
    gemm/syrk + separate un-fused normalization + LibSVM; ``"optimized"``
    = blocked matmuls + merged normalization + PhiSVM.
    """
    if variant == "baseline":
        v = n_voxels_task or baseline_task_voxels(spec, hw)
        return TaskEstimate(
            variant=variant,
            n_voxels_task=v,
            correlation=model_correlation_matmul(spec, v, hw, "mkl"),
            normalization=model_normalization(spec, v, hw, "baseline"),
            kernel_precompute=model_kernel_syrk(spec, v, hw, "mkl"),
            svm=model_svm_cv(spec, v, hw, "libsvm"),
        )
    if variant == "optimized":
        v = n_voxels_task or OPTIMIZED_TASK_VOXELS
        correlation, normalization, kernel_precompute = _walk_stages(spec, v, hw)
        return TaskEstimate(
            variant=variant,
            n_voxels_task=v,
            correlation=correlation,
            normalization=normalization,
            kernel_precompute=kernel_precompute,
            svm=model_svm_cv(spec, v, hw, "phisvm"),
        )
    raise ValueError(f"unknown variant {variant!r}")


def per_voxel_seconds(spec: DatasetSpec, hw: HardwareSpec, variant: str) -> float:
    """Per-voxel task time (Fig. 9 / Fig. 10 metric)."""
    return model_task(spec, hw, variant).seconds_per_voxel


def offline_task_seconds(
    spec: DatasetSpec, hw: HardwareSpec, n_voxels_task: int
) -> float:
    """Optimized per-task seconds for the offline cluster runs.

    The master partitions work in ``n_voxels_task`` chunks (120/60 in
    Table 3's runs); this scales the per-voxel optimized model to that
    chunk size.
    """
    return per_voxel_seconds(spec, hw, "optimized") * n_voxels_task


def online_task_seconds(
    spec: DatasetSpec, hw: HardwareSpec, n_voxels_task: int
) -> float:
    """Per-task seconds for online (single-subject) voxel selection.

    The online pipeline runs the same stages on one subject's E epochs
    instead of the full M, with within-subject k-fold CV.  Work scales
    roughly with the epoch count in stage 1 and quadratically in the
    SVM stages, so the online task is modeled on a reduced geometry.
    """
    single = DatasetSpec(
        name=f"{spec.name}-online",
        n_voxels=spec.n_voxels,
        # One subject's epochs; keep >= 2 "subjects" so the spec's
        # training-split accounting stays meaningful (k-fold CV online).
        n_subjects=2,
        n_epochs=2 * spec.epochs_per_subject,
        epoch_length=spec.epoch_length,
    )
    return per_voxel_seconds(single, hw, "optimized") * n_voxels_task

"""Performance models: kernel access-pattern models + machine timing.

These regenerate the paper's instrumentation tables (1, 5, 6, 7, 8) and
the single-node comparison figures (9, 10, 11); see DESIGN.md for which
columns are first-principles vs calibrated.
"""

from .base import KernelEstimate, arch_key, calibration_for, estimate_kernel
from .calibration import CALIBRATION, KernelCalibration, get_calibration
from .memory_model import MemoryFootprint, max_resident_voxels, task_memory
from .matmul_model import (
    MKL_SYRK_COLUMN_BLOCK,
    CorrShape,
    SyrkShape,
    corr_shape_for,
    model_correlation_matmul,
    model_kernel_syrk,
    syrk_shape_for,
)
from .incremental_model import IncrementalStepShape, model_incremental_epoch_close
from .norm_model import NORM_SWEEPS, NormSweeps, model_normalization
from .stage12_model import (
    DISPATCH_OVERHEAD_SECONDS,
    NORM_VECTOR_PASSES,
    BatchedStage12Shape,
    batched_stage12_shape_for,
    model_batched_stage12,
    stage12_dispatch_amortization,
    sweep_fits_l2,
    sweep_slab_bytes,
)
from .sparse_model import (
    CSR_ASSEMBLY_PASSES,
    CSR_BYTES_PER_ENTRY,
    SparseStage12Shape,
    dense_crossover_density,
    density_sweep,
    format_density_sweep,
    model_sparse_stage12,
    sparse_stage12_shape_for,
    tile_bytes,
    tile_fits_l2,
)
from .roofline import (
    RooflinePoint,
    RooflineRow,
    attainable_gflops,
    format_roofline_report,
    ridge_intensity,
    roofline_point,
    roofline_rows,
)
from .svm_model import SVM_VARIANTS, SvmVariant, model_svm_cv, svm_problem_count
from .task_model import (
    OPTIMIZED_TASK_VOXELS,
    TaskEstimate,
    baseline_task_voxels,
    model_task,
    model_walk,
    offline_task_seconds,
    online_task_seconds,
    per_voxel_seconds,
)
from .vtune import (
    InstrumentationRow,
    baseline_report,
    format_report,
    row_from_estimate,
)

__all__ = [
    "BatchedStage12Shape",
    "CALIBRATION",
    "CSR_ASSEMBLY_PASSES",
    "CSR_BYTES_PER_ENTRY",
    "CorrShape",
    "DISPATCH_OVERHEAD_SECONDS",
    "IncrementalStepShape",
    "InstrumentationRow",
    "KernelCalibration",
    "KernelEstimate",
    "MKL_SYRK_COLUMN_BLOCK",
    "MemoryFootprint",
    "NORM_SWEEPS",
    "NORM_VECTOR_PASSES",
    "NormSweeps",
    "OPTIMIZED_TASK_VOXELS",
    "RooflinePoint",
    "RooflineRow",
    "SVM_VARIANTS",
    "SparseStage12Shape",
    "SvmVariant",
    "SyrkShape",
    "TaskEstimate",
    "arch_key",
    "attainable_gflops",
    "baseline_report",
    "baseline_task_voxels",
    "batched_stage12_shape_for",
    "calibration_for",
    "corr_shape_for",
    "dense_crossover_density",
    "density_sweep",
    "estimate_kernel",
    "format_density_sweep",
    "format_report",
    "format_roofline_report",
    "get_calibration",
    "max_resident_voxels",
    "model_batched_stage12",
    "model_correlation_matmul",
    "model_incremental_epoch_close",
    "model_kernel_syrk",
    "model_normalization",
    "model_sparse_stage12",
    "model_svm_cv",
    "model_task",
    "model_walk",
    "offline_task_seconds",
    "online_task_seconds",
    "per_voxel_seconds",
    "ridge_intensity",
    "roofline_point",
    "roofline_rows",
    "row_from_estimate",
    "sparse_stage12_shape_for",
    "stage12_dispatch_amortization",
    "svm_problem_count",
    "sweep_fits_l2",
    "sweep_slab_bytes",
    "syrk_shape_for",
    "task_memory",
    "tile_bytes",
    "tile_fits_l2",
]

"""The FCMA core: the paper's three-stage pipeline and its two
implementations (baseline and optimized)."""

from .blocking import BlockingPlan, plan_blocks
from .correlation import (
    correlate_baseline,
    correlate_batched,
    epoch_windows,
    normalize_epoch_data,
    stage1_input_copies,
)
from .kernels import (
    csr_gram_panel,
    gram_chunks,
    kernel_matrix_baseline,
    kernel_matrix_batched,
)
from .normalization import (
    NormalizationWorkspace,
    fisher_z,
    fuse_normalize_tile,
    normalize_separated,
    zscore_within_subject,
)
from .pipeline import FCMAConfig, clear_preprocess_cache, preprocess_dataset
from .results import VoxelScores
from .sparse import (
    SparseCorrelationResult,
    SparseStage12Stats,
    threshold_dense,
    topk_block,
)
from .tiling import iter_blocks
from .voxel_selection import (
    score_kernels,
    score_voxels,
    score_voxels_reference,
    score_voxels_sparse,
)

__all__ = [
    "BlockingPlan",
    "FCMAConfig",
    "NormalizationWorkspace",
    "SparseCorrelationResult",
    "SparseStage12Stats",
    "VoxelScores",
    "clear_preprocess_cache",
    "correlate_baseline",
    "correlate_batched",
    "csr_gram_panel",
    "epoch_windows",
    "fisher_z",
    "fuse_normalize_tile",
    "gram_chunks",
    "iter_blocks",
    "kernel_matrix_baseline",
    "kernel_matrix_batched",
    "normalize_epoch_data",
    "normalize_separated",
    "plan_blocks",
    "preprocess_dataset",
    "score_kernels",
    "score_voxels",
    "score_voxels_reference",
    "score_voxels_sparse",
    "stage1_input_copies",
    "threshold_dense",
    "topk_block",
    "zscore_within_subject",
]

"""SVM substrate: SMO solver, selection heuristics, PhiSVM, and the
LibSVM-like baseline."""

from .cross_validation import (
    BatchCrossValidationResult,
    CrossValidationResult,
    cv_fold_ids,
    grouped_cross_validation,
    grouped_cross_validation_batch,
    kfold_ids,
    loso_cross_validation,
)
from .heuristics import (
    AdaptiveSelector,
    FirstOrderSelector,
    SecondOrderSelector,
    SelectionState,
    WorkingSetSelector,
)
from .kernels import (
    linear_kernel,
    polynomial_kernel,
    rbf_kernel,
    validate_kernel_matrix,
)
from .grid import GridResult, default_c_grid, select_c
from .libsvm_like import CachedLinearKernel, LibSVMClassifier, SparseNodes
from .multiclass import OneVsOneClassifier, OneVsOneModel, as_multiclass
from .model import BatchSVMModel, SVMModel
from .phisvm import PhiSVM
from .platt import PlattScaler, fit_platt
from .smo import (
    BatchSMOResult,
    DenseKernel,
    KernelOracle,
    SMOResult,
    solve_smo,
    solve_smo_batch,
)

__all__ = [
    "AdaptiveSelector",
    "BatchCrossValidationResult",
    "BatchSMOResult",
    "BatchSVMModel",
    "CachedLinearKernel",
    "CrossValidationResult",
    "DenseKernel",
    "FirstOrderSelector",
    "GridResult",
    "KernelOracle",
    "LibSVMClassifier",
    "OneVsOneClassifier",
    "OneVsOneModel",
    "PhiSVM",
    "PlattScaler",
    "SMOResult",
    "SVMModel",
    "SecondOrderSelector",
    "SelectionState",
    "SparseNodes",
    "WorkingSetSelector",
    "as_multiclass",
    "default_c_grid",
    "fit_platt",
    "grouped_cross_validation",
    "cv_fold_ids",
    "grouped_cross_validation_batch",
    "kfold_ids",
    "linear_kernel",
    "loso_cross_validation",
    "polynomial_kernel",
    "rbf_kernel",
    "select_c",
    "solve_smo",
    "solve_smo_batch",
    "validate_kernel_matrix",
]

"""PhiSVM: the paper's fast SVM for many small problems (Section 4.4).

Design points reproduced from the paper:

* **Dense single precision** throughout ("we used float type in
  PhiSVM"), avoiding LibSVM's sparse node storage and double-precision
  inner loops.
* **Precomputed linear kernel** input — the kernel matrix arrives from
  the blocked ``ssyrk`` stage, so training touches only the small
  ``M x M`` matrix.
* **Adaptive working-set selection**: chooses between the first-order
  (Keerthi) and second-order (Fan) heuristics at runtime "based on the
  convergence rate on the specific training data".
* One solver instance per voxel problem ("a thread takes full
  responsibility for the cross validation of one voxel") — here each
  ``fit`` is one such problem; parallelism across voxels is provided by
  :mod:`repro.parallel`.
"""

from __future__ import annotations

import numpy as np

from .heuristics import (
    AdaptiveSelector,
    FirstOrderSelector,
    SecondOrderSelector,
    WorkingSetSelector,
)
from .kernels import linear_kernel, validate_kernel_matrix
from .model import BatchSVMModel, SVMModel, encode_labels
from .smo import solve_smo, solve_smo_batch

__all__ = ["PhiSVM"]


class PhiSVM:
    """Fast dense float32 C-SVC over precomputed kernels.

    Parameters
    ----------
    c:
        Box constraint (LibSVM's ``-c``), default 1.0 as in FCMA.
    tol:
        SMO stopping tolerance, default 1e-3 (LibSVM's default).
    max_iter:
        Optional iteration cap; ``None`` uses the solver default.
    selector_factory:
        Callable creating a fresh working-set selector per fit; defaults
        to :class:`~repro.svm.heuristics.AdaptiveSelector` (the PhiSVM
        behaviour).  Passing e.g. ``SecondOrderSelector`` turns this into
        a dense-float32 LibSVM for ablation studies.
    """

    def __init__(
        self,
        c: float = 1.0,
        tol: float = 1e-3,
        max_iter: int | None = None,
        selector_factory: type[WorkingSetSelector] | None = None,
    ):
        if c <= 0:
            raise ValueError("C must be positive")
        if tol <= 0:
            raise ValueError("tol must be positive")
        self.c = c
        self.tol = tol
        self.max_iter = max_iter
        self._selector_factory = (
            selector_factory if selector_factory is not None else AdaptiveSelector
        )
        #: Selector used by the most recent fit (introspection/ablation).
        self.last_selector: WorkingSetSelector | None = None

    def fit_kernel(
        self,
        kernel: np.ndarray,
        labels: np.ndarray,
        alpha0: np.ndarray | None = None,
    ) -> SVMModel:
        """Train on a precomputed kernel matrix (the FCMA fast path).

        ``kernel`` is cast to float32 if needed; ``labels`` may be any
        two distinct integer classes.  ``alpha0`` warm-starts the SMO
        solve (see :func:`~repro.svm.smo.solve_smo`) — the streaming
        loop's retrains resume from the previous model's duals padded
        with zeros for the newly arrived epochs.
        """
        kernel = validate_kernel_matrix(kernel)
        kernel = np.ascontiguousarray(kernel, dtype=np.float32)
        y, classes = encode_labels(labels)
        selector = self._selector_factory()
        self.last_selector = selector
        result = solve_smo(
            kernel,
            y,
            c=self.c,
            tol=self.tol,
            max_iter=self.max_iter,
            selector=selector,
            alpha0=alpha0,
        )
        return SVMModel(
            dual_coef=(result.alpha * y).astype(np.float32),
            rho=result.rho,
            classes=classes,
            c=self.c,
            iterations=result.iterations,
            converged=result.converged,
            objective=result.objective,
        )

    def _batch_selection(self) -> str:
        """solve_smo_batch selection mode mirroring the selector factory."""
        if self._selector_factory is AdaptiveSelector:
            return "adaptive"
        if self._selector_factory is FirstOrderSelector:
            return "first"
        if self._selector_factory is SecondOrderSelector:
            return "second"
        raise NotImplementedError(
            f"no batched equivalent of {self._selector_factory.__name__}; "
            "use the per-voxel path"
        )

    def fit_kernel_batch(
        self, kernels: np.ndarray, labels: np.ndarray
    ) -> BatchSVMModel:
        """Train ``P`` problems jointly on stacked kernels.

        ``kernels`` has shape ``(P, n, n)``; ``labels`` is ``(n,)``
        (shared by all problems) or ``(P, n)`` (one row per problem, as
        when cross-validation stacks voxels × folds and every fold
        trains on different epochs).  The two classes are common to the
        batch and every problem must see both.  This is the batch
        analogue of :meth:`fit_kernel`: each problem follows the same
        SMO trajectory it would follow alone, through
        :func:`~repro.svm.smo.solve_smo_batch` (one compiled solve per
        problem, dealt to the engine's threads).
        """
        kernels = np.asarray(kernels)
        if kernels.ndim != 3 or kernels.shape[1] != kernels.shape[2]:
            raise ValueError(
                f"kernels must be (problems, n, n), got {kernels.shape}"
            )
        kernels = np.ascontiguousarray(kernels, dtype=np.float32)
        y, classes = encode_labels(labels)
        if y.ndim == 2 and (abs(y.sum(axis=1)) == y.shape[1]).any():
            raise ValueError("every problem needs both classes in its labels")
        result = solve_smo_batch(
            kernels,
            y,
            c=self.c,
            tol=self.tol,
            max_iter=self.max_iter,
            selection=self._batch_selection(),
        )
        return BatchSVMModel(
            dual_coef=(result.alpha * y.astype(np.float32)).astype(np.float32),
            rho=result.rho,
            classes=classes,
            c=self.c,
            iterations=result.iterations,
            converged=result.converged,
            objective=result.objective,
        )

    def fit(self, x: np.ndarray, labels: np.ndarray) -> SVMModel:
        """Train on raw feature rows via the linear kernel.

        Convenience for callers without a precomputed kernel; computes
        ``X X^T`` in float32 and delegates to :meth:`fit_kernel`.
        """
        x = np.ascontiguousarray(x, dtype=np.float32)
        return self.fit_kernel(linear_kernel(x), labels)

    def cross_val_accuracy(
        self,
        kernel: np.ndarray,
        labels: np.ndarray,
        fold_ids: np.ndarray,
    ) -> float:
        """Grouped cross-validation accuracy over a precomputed kernel.

        ``fold_ids`` assigns each sample to a fold (e.g. subject ids for
        leave-one-subject-out).  Returns mean accuracy over held-out
        samples, weighted by fold size.
        """
        from .cross_validation import grouped_cross_validation

        return grouped_cross_validation(self, kernel, labels, fold_ids).accuracy

    def __repr__(self) -> str:
        return (
            f"PhiSVM(c={self.c}, tol={self.tol}, "
            f"selector={self._selector_factory.__name__})"
        )

"""Trained SVM model: coefficients, offset, and prediction.

Both backends (:class:`~repro.svm.phisvm.PhiSVM`,
:class:`~repro.svm.libsvm_like.LibSVMClassifier`) produce an
:class:`SVMModel`.  Because FCMA trains on precomputed linear kernels,
prediction takes the *test-versus-training kernel block* rather than raw
features; helpers for the raw-feature linear case are included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SVMModel", "BatchSVMModel"]


@dataclass(frozen=True)
class SVMModel:
    """A trained binary C-SVC.

    The decision function for a test block ``K_test`` of shape
    ``(n_test, n_train)`` is ``K_test @ dual_coef - rho``; predictions
    map positive scores to ``classes[1]`` and the rest to ``classes[0]``.
    """

    #: ``alpha_i * y_i`` per training sample, shape (n_train,).
    dual_coef: np.ndarray
    #: Decision-function offset (LibSVM's rho).
    rho: float
    #: Original class labels; classes[0] -> -1, classes[1] -> +1.
    classes: tuple[int, int]
    #: Box constraint the model was trained with.
    c: float
    #: Working-set iterations the solver used.
    iterations: int
    #: Whether the solver met its tolerance.
    converged: bool
    #: Final dual objective.
    objective: float

    def __post_init__(self) -> None:
        if self.dual_coef.ndim != 1:
            raise ValueError("dual_coef must be 1D")
        if len(self.classes) != 2 or self.classes[0] == self.classes[1]:
            raise ValueError("classes must be two distinct labels")

    @property
    def n_train(self) -> int:
        """Number of training samples the model was fit on."""
        return self.dual_coef.shape[0]

    @property
    def support_mask(self) -> np.ndarray:
        """Boolean mask of support vectors (non-zero dual coefficients)."""
        return self.dual_coef != 0.0

    @property
    def n_support(self) -> int:
        """Number of support vectors."""
        return int(np.count_nonzero(self.dual_coef))

    def decision_function(self, kernel_block: np.ndarray) -> np.ndarray:
        """Scores for a ``(n_test, n_train)`` test-vs-train kernel block."""
        kernel_block = np.atleast_2d(np.asarray(kernel_block))
        if kernel_block.shape[1] != self.n_train:
            raise ValueError(
                f"kernel block has {kernel_block.shape[1]} columns, "
                f"model expects {self.n_train}"
            )
        return kernel_block @ self.dual_coef - self.rho

    def predict(self, kernel_block: np.ndarray) -> np.ndarray:
        """Predicted class labels for a test-vs-train kernel block."""
        scores = self.decision_function(kernel_block)
        out = np.where(scores > 0.0, self.classes[1], self.classes[0])
        return out.astype(np.int64)

    def accuracy(self, kernel_block: np.ndarray, labels: np.ndarray) -> float:
        """Fraction of correct predictions on a test block."""
        labels = np.asarray(labels)
        pred = self.predict(kernel_block)
        if pred.shape != labels.shape:
            raise ValueError(
                f"labels shape {labels.shape} != predictions {pred.shape}"
            )
        return float((pred == labels).mean())

    def linear_weights(self, x_train: np.ndarray) -> np.ndarray:
        """Primal weight vector ``w = X^T (alpha * y)`` for linear kernels.

        Only meaningful when the model was trained on a linear kernel of
        ``x_train``; lets online feedback score new samples with a single
        dot product instead of a kernel block.
        """
        x_train = np.asarray(x_train)
        if x_train.shape[0] != self.n_train:
            raise ValueError(
                f"x_train has {x_train.shape[0]} rows, model expects "
                f"{self.n_train}"
            )
        return x_train.T @ self.dual_coef


@dataclass(frozen=True)
class BatchSVMModel:
    """``B`` binary C-SVCs trained jointly on stacked kernels.

    The batched counterpart of :class:`SVMModel`: problem ``b``'s
    decision function for a test block ``K_test[b]`` of shape
    ``(n_test, n_train)`` is ``K_test[b] @ dual_coef[b] - rho[b]``.
    All problems share the class pair and the training-set *size*, not
    necessarily the training samples: in FCMA stage 3 the batch axis is
    voxels × cross-validation folds, each fold with its own label row.
    """

    #: ``alpha_i * y_i`` per problem and training sample, shape (B, n_train).
    dual_coef: np.ndarray
    #: Per-problem decision-function offsets, shape (B,).
    rho: np.ndarray
    #: Original class labels; classes[0] -> -1, classes[1] -> +1.
    classes: tuple[int, int]
    #: Box constraint the models were trained with.
    c: float
    #: Working-set iterations per problem, shape (B,).
    iterations: np.ndarray
    #: Per-problem convergence flags, shape (B,).
    converged: np.ndarray
    #: Final dual objective per problem, shape (B,).
    objective: np.ndarray

    def __post_init__(self) -> None:
        if self.dual_coef.ndim != 2:
            raise ValueError("dual_coef must be (problems, n_train)")
        if len(self.classes) != 2 or self.classes[0] == self.classes[1]:
            raise ValueError("classes must be two distinct labels")

    def __len__(self) -> int:
        return self.dual_coef.shape[0]

    @property
    def n_train(self) -> int:
        """Number of training samples each problem was fit on."""
        return self.dual_coef.shape[1]

    def model(self, b: int) -> SVMModel:
        """Problem ``b`` as a standalone :class:`SVMModel`."""
        return SVMModel(
            dual_coef=self.dual_coef[b],
            rho=float(self.rho[b]),
            classes=self.classes,
            c=self.c,
            iterations=int(self.iterations[b]),
            converged=bool(self.converged[b]),
            objective=float(self.objective[b]),
        )

    def _check_blocks(self, kernel_blocks: np.ndarray) -> np.ndarray:
        kernel_blocks = np.asarray(kernel_blocks)
        if kernel_blocks.ndim == 2:
            # One shared test block (e.g. identical fold slices).
            kernel_blocks = np.broadcast_to(
                kernel_blocks, (len(self),) + kernel_blocks.shape
            )
        if kernel_blocks.ndim != 3 or kernel_blocks.shape[0] != len(self):
            raise ValueError(
                f"kernel blocks must be ({len(self)}, n_test, {self.n_train}), "
                f"got {kernel_blocks.shape}"
            )
        if kernel_blocks.shape[2] != self.n_train:
            raise ValueError(
                f"kernel blocks have {kernel_blocks.shape[2]} columns, "
                f"models expect {self.n_train}"
            )
        return kernel_blocks

    def decision_function(self, kernel_blocks: np.ndarray) -> np.ndarray:
        """Scores for stacked ``(B, n_test, n_train)`` test blocks."""
        kernel_blocks = self._check_blocks(kernel_blocks)
        scores = kernel_blocks @ self.dual_coef[:, :, None]
        return scores[:, :, 0] - self.rho[:, None]

    def predict(self, kernel_blocks: np.ndarray) -> np.ndarray:
        """Predicted labels per problem, shape ``(B, n_test)``."""
        scores = self.decision_function(kernel_blocks)
        out = np.where(scores > 0.0, self.classes[1], self.classes[0])
        return out.astype(np.int64)

    def accuracy(self, kernel_blocks: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Per-problem fraction of correct predictions, shape ``(B,)``.

        ``labels`` is ``(n_test,)`` (shared by all problems) or
        ``(B, n_test)`` (one row per problem).
        """
        labels = np.asarray(labels)
        pred = self.predict(kernel_blocks)
        if labels.shape not in (pred.shape[1:], pred.shape):
            raise ValueError(
                f"labels must have shape ({pred.shape[1]},) or {pred.shape}, "
                f"got {labels.shape}"
            )
        return (pred == labels).mean(axis=1)


def encode_labels(labels: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    """Map two arbitrary integer class labels onto {-1, +1}.

    Returns ``(y, classes)`` with ``classes`` sorted ascending so the
    encoding is deterministic.
    """
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    if uniq.size != 2:
        raise ValueError(
            f"binary classification requires exactly 2 classes, got {uniq.size}"
        )
    classes = (int(uniq[0]), int(uniq[1]))
    y = np.where(labels == classes[1], 1, -1).astype(np.int64)
    return y, classes

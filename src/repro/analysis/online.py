"""Online analysis: single-subject voxel selection for closed-loop rtfMRI.

Section 5.2.2: "instead of taking data from multiple subjects to process
in batch, we only use the data received from the subject being scanned,
and no nested cross validation is applied" — voxels are selected from
the subject's own epochs (within-subject k-fold CV), then a classifier
is trained on the selected voxels' correlation patterns to provide
real-time feedback on subsequent epochs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.correlation import correlate_baseline, normalize_epoch_data
from ..core.normalization import normalize_separated
from ..core.pipeline import FCMAConfig
from ..core.results import VoxelScores
from ..data.dataset import FMRIDataset
from ..exec.context import RunContext
from ..exec.executors import Executor, SerialExecutor
from ..exec.registry import create_backend
from ..svm.kernels import linear_kernel
from ..svm.model import SVMModel
from ..svm.platt import PlattScaler, fit_platt
from .offline import selected_voxel_features

__all__ = ["OnlineClassifier", "OnlineResult", "run_online_analysis"]


@dataclass(frozen=True)
class OnlineClassifier:
    """The trained feedback classifier plus what it needs at scan time."""

    model: SVMModel
    #: Selected voxel indices (rows whose correlations form features).
    voxels: np.ndarray
    #: Training feature matrix (needed for linear-kernel test blocks).
    train_features: np.ndarray
    #: Epochs-per-subject grouping used during training normalization.
    epochs_per_subject: int
    #: Optional probability calibration (Platt scaling on the training
    #: decision values) for graded neurofeedback.
    platt: PlattScaler | None = None

    def features_for_epoch(self, epoch_window: np.ndarray) -> np.ndarray:
        """Features for one incoming epoch window ``(n_voxels, t)``.

        Computes the selected voxels' correlation vectors against the
        whole brain for the new epoch and Fisher-transforms them.  (The
        within-subject z-score needs a population; at scan time the
        Fisher-z pattern is classified directly, standard practice for
        per-epoch rtfMRI feedback.)  The closed loop calls this on each
        completed epoch's window, inside its ``incremental_epoch_close``
        kernel span.
        """
        window = np.asarray(epoch_window)
        if window.ndim != 2:
            raise ValueError(f"epoch window must be 2D, got {window.shape}")
        z = normalize_epoch_data(window[None])  # (1, N, T)
        corr = correlate_baseline(z, self.voxels)  # (k, 1, N)
        corr = np.arctanh(np.clip(corr, -1 + 1e-6, 1 - 1e-6))
        return corr.transpose(1, 0, 2).reshape(1, -1)

    def classify_features(self, feats: np.ndarray) -> int:
        """Predicted condition from an already-computed feature row.

        The closed loop times :meth:`features_for_epoch` on its own
        (its epoch-close kernel span); this entry point lets it share
        the kernel-block + predict step with :meth:`classify_epoch`.
        """
        block = linear_kernel(
            np.ascontiguousarray(feats, dtype=np.float32), self.train_features
        )
        return int(self.model.predict(block)[0])

    def classify_epoch(self, epoch_window: np.ndarray) -> int:
        """Predicted condition for one incoming epoch (the feedback)."""
        return self.classify_features(self.features_for_epoch(epoch_window))

    def classify_epoch_with_confidence(
        self, epoch_window: np.ndarray
    ) -> tuple[int, float]:
        """Feedback plus calibrated confidence in [0.5, 1).

        Graded feedback is what closed-loop attention training actually
        displays (the paper's reference [7] modulates the stimulus by
        decoder confidence).  Falls back to confidence 0.5 + 0 margin if
        no Platt scaler was fit (e.g. degenerate training decisions).
        """
        feats = self.features_for_epoch(epoch_window)
        block = linear_kernel(feats.astype(np.float32), self.train_features)
        decision = self.model.decision_function(block)
        label = int(self.model.predict(block)[0])
        if self.platt is None:
            return label, 0.5
        return label, float(self.platt.confidence(decision)[0])


@dataclass(frozen=True)
class OnlineResult:
    """Outcome of online voxel selection + classifier training."""

    selected: VoxelScores
    classifier: OnlineClassifier
    #: Training-set accuracy of the final classifier (sanity indicator;
    #: generalization is what the subsequent closed-loop run measures).
    training_accuracy: float


def run_online_analysis(
    dataset: FMRIDataset,
    subject: int,
    config: FCMAConfig = FCMAConfig(),
    top_k: int = 20,
    executor: Executor | None = None,
    context: RunContext | None = None,
    warm_start_alpha: np.ndarray | None = None,
) -> OnlineResult:
    """Select voxels from one subject's data and train the feedback model.

    ``dataset`` may contain many subjects; only ``subject``'s data is
    used, as in a live scan.  ``executor`` runs the voxel selection
    (serial by default).  Stage timings accumulate into ``context``
    (built on ``config``; classifier training lands under
    ``train-classifier``).

    ``warm_start_alpha`` (one dual per epoch, e.g. a previous model's
    duals padded with zeros for newly arrived epochs) warm-starts the
    classifier's SMO solve on backends that accept ``alpha0``; backends
    without warm-start support fall back to a cold solve.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    single = dataset.single_subject(subject)
    ctx = context if context is not None else RunContext(config)
    exe = executor if executor is not None else SerialExecutor()
    selected = exe.run(single, ctx).top(top_k)

    with ctx.timer("train-classifier"):
        features, labels, _ = selected_voxel_features(single, selected.voxels)
        backend = create_backend(config)
        kernel = linear_kernel(features)
        model = None
        if warm_start_alpha is not None:
            try:
                model = backend.fit_kernel(
                    kernel, labels, alpha0=warm_start_alpha
                )
            except TypeError:  # backend without warm-start support
                model = None
        if model is None:
            model = backend.fit_kernel(kernel, labels)
        accuracy = model.accuracy(kernel, labels)
        platt = None
        if hasattr(model, "decision_function") and np.unique(labels).size == 2:
            try:
                platt = fit_platt(model.decision_function(kernel), labels)
            except ValueError:
                platt = None  # degenerate decisions: feedback stays binary
    classifier = OnlineClassifier(
        model=model,
        voxels=selected.voxels,
        train_features=features,
        epochs_per_subject=single.epochs.epochs_per_subject(),
        platt=platt,
    )
    return OnlineResult(
        selected=selected, classifier=classifier, training_accuracy=accuracy
    )

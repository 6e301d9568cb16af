"""Selection accuracy: scoring FCMA voxel selection against planted truth.

The ground-truth generator (:mod:`repro.data.designs`) plants a known
set of informative voxels; FCMA ranks every voxel by cross-validation
accuracy.  This module turns that ranking into standard retrieval
metrics against the planted set:

* **ROC-AUC** — probability that a random informative voxel outranks a
  random uninformative one (rank statistic, average ranks on ties);
* **average precision** — area under the precision-recall curve of the
  ranking (ties broken deterministically by voxel id, matching
  :meth:`~repro.core.results.VoxelScores.sorted_by_accuracy`);
* **top-k hit rate** — fraction of the k selected voxels that are truly
  informative (k defaults to the planted set size, where precision@k
  equals recall@k).

All three are pure functions of the ranking and the planted set, so
they are exactly as deterministic as the pipeline that produced the
scores — the property the accuracy benchmark's equality check relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.results import VoxelScores

__all__ = [
    "SelectionScore",
    "average_precision",
    "roc_auc",
    "score_selection",
    "top_k_hit_rate",
]


def _validated(
    values: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if values.ndim != 1 or values.shape != labels.shape:
        raise ValueError("values and labels must be 1D and equal length")
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == labels.size:
        raise ValueError(
            "need at least one positive and one negative label "
            f"(got {n_pos} positives of {labels.size})"
        )
    return values, labels


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``, ties sharing their average rank."""
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def roc_auc(values: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve of ranking ``labels`` by ``values``.

    Computed as the Mann-Whitney U statistic with average ranks on
    ties, so exchanging tied voxels never changes the result.
    """
    values, labels = _validated(values, labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    ranks = _average_ranks(values)
    u = float(ranks[labels].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def average_precision(values: np.ndarray, labels: np.ndarray) -> float:
    """Average precision of ranking ``labels`` by descending ``values``.

    Ties are broken by ascending index — the same deterministic order
    as :meth:`repro.core.results.VoxelScores.sorted_by_accuracy` — so
    the metric is a pure function of the selection output.
    """
    values, labels = _validated(values, labels)
    order = np.lexsort((np.arange(values.size), -values))
    hits = labels[order]
    precision_at = np.cumsum(hits) / np.arange(1, values.size + 1)
    return float(precision_at[hits].sum() / hits.sum())


def top_k_hit_rate(scores: VoxelScores, truth: np.ndarray, k: int) -> float:
    """Fraction of the ``k`` best-classifying voxels that are planted."""
    if k < 1:
        raise ValueError("k must be >= 1")
    truth = np.asarray(truth, dtype=np.int64)
    selected = scores.top(k).voxels
    hits = np.intersect1d(selected, truth).size
    return hits / min(k, truth.size) if truth.size else 0.0


@dataclass(frozen=True)
class SelectionScore:
    """The accuracy verdict for one selection against planted truth."""

    roc_auc: float
    average_precision: float
    top_k_hit_rate: float
    #: The k used for the hit rate (defaults to the planted set size).
    top_k: int
    #: Size of the planted informative set.
    n_informative: int
    #: Total voxels the selection ranked.
    n_scored: int

    def as_metrics(self, prefix: str = "") -> dict[str, float]:
        """Flat metric dict, each name under ``prefix``."""
        return {
            f"{prefix}roc_auc": self.roc_auc,
            f"{prefix}average_precision": self.average_precision,
            f"{prefix}top_k_hit_rate": self.top_k_hit_rate,
        }


def score_selection(
    scores: VoxelScores,
    truth: np.ndarray,
    top_k: int | None = None,
) -> SelectionScore:
    """Score an FCMA selection against the planted informative set.

    ``truth`` holds the planted voxel ids
    (:func:`repro.data.designs.design_ground_truth`); every planted id
    must have been scored.  ``top_k`` defaults to the planted set size.
    """
    truth = np.unique(np.asarray(truth, dtype=np.int64))
    if truth.size == 0:
        raise ValueError("truth must name at least one planted voxel")
    missing = np.setdiff1d(truth, scores.voxels)
    if missing.size:
        raise ValueError(
            f"planted voxels were never scored: {missing[:5].tolist()}..."
            if missing.size > 5
            else f"planted voxels were never scored: {missing.tolist()}"
        )
    labels = np.isin(scores.voxels, truth)
    k = int(truth.size if top_k is None else top_k)
    return SelectionScore(
        roc_auc=roc_auc(scores.accuracies, labels),
        average_precision=average_precision(scores.accuracies, labels),
        top_k_hit_rate=top_k_hit_rate(scores, truth, k),
        top_k=k,
        n_informative=int(truth.size),
        n_scored=len(scores),
    )

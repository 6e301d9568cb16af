"""The four benchmark workloads and how their inputs are made from a seed.

Nothing here imports ``repro`` or numpy at module scope: the parent
command (``run.py``) reads the names and floors without paying the
package import, and the BLAS thread pins in ``child.py`` must land in
the environment before numpy loads.

Scored-voxel counts are shrunk from the sizes in ISSUE 12 (144 / 1200 /
600 / 480) so that one driver run — three cold set-ups plus
``run_seconds`` of repetitions — fits the builder contract's time cap;
N, epochs and the repetition floors are the issue's.  ``scaleout-tiles``
is smaller still (half a row panel): every repetition spawns fresh
worker processes, and on this VM first-touch of fresh memory is the
largest noise source, so fewer bytes per repetition is what keeps its
median steady.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any

#: Share of the scored voxels drawn from the planted informative set, so
#: every workload ranks positives against negatives.
PLANTED_SHARE = 1 / 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "facescene" (multi-subject LOSO) or "wide" (34,470 voxels, one subject).
    dataset: str
    #: FCMAConfig keyword arguments; ``top_k_frac`` resolves to ``top_k``.
    config: dict[str, Any]
    executor: str
    executor_kwargs: dict[str, Any] = field(default_factory=dict)
    n_scored: int = 120
    smoke_scored: int = 12
    #: Timed-repetition floor (the measuring loop never stops below it).
    min_reps: int = 7
    #: Output check: planted voxels must outrank the others at least this well.
    auc_floor: float | None = None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="offline-facescene",
            why="the paper's offline LOSO analysis: svm SMO cross-validation "
            "does >=90% of the work, stage 1/2 under 5%",
            dataset="facescene",
            config={"variant": "optimized-batched"},
            executor="serial",
            n_scored=36,
            auc_floor=0.95,
        ),
        Workload(
            name="online-wide",
            why="the paper's online single-subject analysis at 34,470 voxels: "
            "core.engine gemm+normalize dominates, SMO is small",
            dataset="wide",
            config={"variant": "optimized-batched"},
            executor="serial",
            n_scored=360,
            smoke_scored=24,
        ),
        Workload(
            name="sparse-wide",
            why="same data through the CSR emitter (top-k 1% + csr_gram_panel): "
            "shows engine changes that help dense but cost sparse, and the "
            "memory contrast",
            dataset="wide",
            config={"variant": "sparse-batched", "top_k_frac": 0.01},
            executor="serial",
            n_scored=180,
            smoke_scored=24,
        ),
        Workload(
            name="scaleout-tiles",
            why="same data over the TCP tiled master-worker runtime: spawn, comm, "
            "serialization and panel merge dominate; serial workloads bypass them",
            dataset="wide",
            config={"variant": "optimized-batched"},
            executor="master-worker",
            executor_kwargs={"transport": "tcp", "partition": "tiles"},
            n_scored=60,
            smoke_scored=24,
            min_reps=5,
        ),
    )
}


def n_workers() -> int:
    """Worker ranks for the master-worker workload: ``min(2, nproc)``."""
    return min(2, os.cpu_count() or 1)


def synthetic_config(workload: Workload, dataset_seed: int, smoke: bool) -> Any:
    """The workload's ``SyntheticConfig`` for one dataset seed."""
    if workload.dataset == "facescene":
        from repro.data.presets import face_scene_scaled

        if smoke:
            return face_scene_scaled(n_voxels=200, n_subjects=3, seed=dataset_seed)
        return face_scene_scaled(n_voxels=1200, n_subjects=6, seed=dataset_seed)
    from repro.data.synthetic import SyntheticConfig

    return SyntheticConfig(
        n_voxels=2400 if smoke else 34_470,
        n_subjects=1,
        epochs_per_subject=12,
        epoch_length=12,
        n_informative=24 if smoke else 120,
        seed=dataset_seed,
        name="wide-single-subject",
    )


def fcma_config(workload: Workload, n_voxels: int) -> Any:
    from repro.core.pipeline import FCMAConfig

    kwargs = dict(workload.config)
    frac = kwargs.pop("top_k_frac", None)
    if frac is not None:
        kwargs["top_k"] = max(1, round(frac * n_voxels))
    return FCMAConfig(**kwargs)


def make_executor(workload: Workload) -> Any:
    from repro.exec import make_executor as make

    if workload.executor == "serial":
        return make("serial")
    return make(workload.executor, n_workers=n_workers(), **workload.executor_kwargs)


@dataclass
class Inputs:
    """Everything one repetition needs; the program sees only
    ``dataset`` and ``voxels`` (and its own ``config``)."""

    synthetic: Any
    dataset: Any
    voxels: Any
    truth: Any
    config: Any
    generate_s: float


def build_inputs(workload: Workload, seed: int, smoke: bool) -> Inputs:
    """Dataset and scored-voxel subset, both derived from ``seed``."""
    import numpy as np
    from repro.data.synthetic import generate_dataset, ground_truth_voxels

    dataset_seed, subset_seed = np.random.SeedSequence(seed).generate_state(2)
    synthetic = synthetic_config(workload, int(dataset_seed), smoke)
    t0 = time.perf_counter()
    dataset = generate_dataset(synthetic)
    generate_s = time.perf_counter() - t0

    n_scored = workload.smoke_scored if smoke else workload.n_scored
    truth = ground_truth_voxels(synthetic)
    rng = np.random.default_rng(subset_seed)
    n_planted = min(truth.size, round(n_scored * PLANTED_SHARE))
    others = np.setdiff1d(np.arange(synthetic.n_voxels), truth)
    voxels = np.sort(
        np.concatenate(
            [
                rng.choice(truth, n_planted, replace=False),
                rng.choice(others, n_scored - n_planted, replace=False),
            ]
        )
    ).astype(np.int64)
    return Inputs(
        synthetic=synthetic,
        dataset=dataset,
        voxels=voxels,
        truth=np.intersect1d(truth, voxels),
        config=fcma_config(workload, synthetic.n_voxels),
        generate_s=generate_s,
    )

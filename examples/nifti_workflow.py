#!/usr/bin/env python
"""Scanner-format workflow: NIfTI in, FCMA, NIfTI accuracy map out.

Demonstrates the interchange path a lab would actually use:

1. synthesize a session and export it as 4D NIfTI volumes (one file per
   subject) plus a paper-style epoch text file — the on-disk inputs the
   paper's pipeline reads;
2. reload everything from disk (no in-memory shortcuts), mask to the
   brain, and run voxel selection;
3. write the resulting accuracy map as a 3D NIfTI overlay any
   neuroimaging viewer can display over anatomy.

Run:  python examples/nifti_workflow.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    FCMAConfig,
    RunContext,
    SerialExecutor,
    generate_dataset,
    ground_truth_voxels,
)
from repro.data import (
    BrainMask,
    EpochTable,
    FMRIDataset,
    SyntheticConfig,
    bold_from_nifti,
    load_epochs,
    read_nifti,
    save_epochs,
    write_nifti,
)
from repro.data.nifti import accuracy_map_to_nifti


def main() -> None:
    grid = (8, 8, 6)
    mask = BrainMask.ellipsoid(grid)
    cfg = SyntheticConfig(
        n_voxels=mask.n_voxels,
        n_subjects=3,
        epochs_per_subject=8,
        epoch_length=12,
        n_informative=20,
        n_groups=4,
        seed=31,
        name="nifti-demo",
    )
    dataset = generate_dataset(cfg)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        # --- 1. export: per-subject 4D NIfTI + epoch text file --------
        for s in dataset.subject_ids():
            volume = mask.unflatten(
                dataset.subject_data(s), fill=0.0
            ).astype(np.float32)
            # unflatten puts time last already: (nx, ny, nz, T)
            write_nifti(root / f"sub-{s:02d}_bold", volume, tr_seconds=1.5)
        save_epochs(dataset.epochs, root / "epochs.txt")
        files = sorted(p.name for p in root.iterdir())
        print("exported session:", ", ".join(files))

        # --- 2. reload from disk and run FCMA -------------------------
        epochs = load_epochs(root / "epochs.txt")
        data = {}
        for s in range(cfg.n_subjects):
            img = read_nifti(root / f"sub-{s:02d}_bold.nii")
            data[s] = bold_from_nifti(img, mask)
        reloaded = FMRIDataset(data, epochs, mask=mask, name="from-nifti")
        print(f"reloaded: {reloaded}")

        scores = SerialExecutor().run(
            reloaded, RunContext(FCMAConfig(task_voxels=120))
        )
        truth = ground_truth_voxels(cfg)
        top = scores.top(len(truth))
        hits = np.isin(top.voxels, truth).sum()
        print(f"ROI recovery from disk round trip: {hits}/{len(truth)}")

        # --- 3. write the viewer-ready accuracy overlay ----------------
        out = accuracy_map_to_nifti(
            root / "fcma_accuracy_map", mask, scores.voxels, scores.accuracies
        )
        overlay = read_nifti(out)
        print(f"accuracy map: {out.name}, grid {overlay.data.shape}, "
              f"max accuracy {overlay.data.max():.3f}")
        assert hits / len(truth) >= 0.7


if __name__ == "__main__":
    main()

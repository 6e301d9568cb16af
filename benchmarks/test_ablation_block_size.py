"""Ablation — stage-1 tile sizes (DESIGN.md: optimization idea #1).

Two views of the same design choice:

* modeled: L2 miss count as the voxel block grows (more B re-passes vs
  fewer, traded against tile residency), at paper scale;
* measured: real stage-1/2 engine wall time across column-tile widths
  on scaled data (the planner's voxel block scales the tile),
  verifying the implementation tolerates any tiling — bitwise — and
  that extreme tilings cost real time.
"""

import numpy as np
import pytest

from repro.bench import render_table
from repro.core.correlation import correlate_batched, normalize_epoch_data
from repro.core.engine import DenseEmitter, run_engine
from repro.core.normalization import normalize_separated
from repro.data import FACE_SCENE
from repro.hw import PHI_5110P
from repro.perf import matmul_model


@pytest.fixture(scope="module")
def z():
    rng = np.random.default_rng(0)
    return normalize_epoch_data(
        rng.standard_normal((16, 1500, 12)).astype(np.float32)
    )


@pytest.mark.parametrize(
    "voxel_sweep,target_block", [(1, 64), (4, 256), (16, 1024), (64, 1500)]
)
def test_measured_target_block_sweep(benchmark, z, voxel_sweep, target_block):
    """128 KiB per planned row over 32 rows x 16 epochs x 4 bytes a
    column: 64 columns of tile per unit of the planner's voxel block."""
    assigned = np.arange(32)
    emitter = DenseEmitter(voxel_sweep=voxel_sweep)
    out, _ = benchmark(run_engine, z, assigned, 4, emitter)
    assert emitter.tile_cols == target_block
    reference = normalize_separated(correlate_batched(z, assigned), 4)
    assert out.tobytes() == reference.tobytes()


def test_modeled_voxel_block_tradeoff(benchmark, save_table):
    """Larger voxel blocks mean fewer passes over B (fewer remote-L2
    refetches) — the reason the paper sizes blocks to the VPU width and
    no smaller."""

    def sweep():
        out = {}
        for vb in (4, 8, 16, 32):
            original = matmul_model.OURS_CORR_VOXEL_BLOCK
            matmul_model.OURS_CORR_VOXEL_BLOCK = vb
            try:
                est = matmul_model.model_correlation_matmul(
                    FACE_SCENE, 120, PHI_5110P, "ours"
                )
            finally:
                matmul_model.OURS_CORR_VOXEL_BLOCK = original
            out[vb] = est
        return out

    ests = benchmark(sweep)
    rows = [
        [
            str(vb),
            f"{est.counters.l2_remote_hits / 1e6:.1f}",
            f"{est.milliseconds:.0f}",
        ]
        for vb, est in ests.items()
    ]
    save_table(
        "ablation_voxel_block",
        render_table(
            ["voxel block", "remote-L2 refetches M", "modeled ms"],
            rows,
            title="Ablation: stage-1 voxel-block size (face-scene, 120-voxel task)",
        ),
    )
    # Monotone: fewer refetches with larger blocks.
    hits = [ests[vb].counters.l2_remote_hits for vb in (4, 8, 16, 32)]
    assert all(a >= b for a, b in zip(hits, hits[1:]))

"""The scale-out model: the tiled workload on the master's link.

One link type (:class:`repro.cluster.NetworkModel` and its presets), one
workload builder for the tiled runtime (``tile_task`` / ``score_task`` /
``tiled_workload``), one walk cost (:func:`repro.perf.model_walk`) and
one scheduler (the cluster simulator, via ``speedup_curve``).
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    GIGABIT_ETHERNET,
    IN_PROCESS,
    LOOPBACK_TCP,
    TEN_GBE,
    NetworkModel,
    score_task,
    speedup_curve,
    tile_task,
    tiled_workload,
)
from repro.core.kernels import GRAM_CHUNK_COLS
from repro.data import FACE_SCENE
from repro.data.presets import DatasetSpec
from repro.hw import E5_2670, PHI_5110P
from repro.perf import (
    model_correlation_matmul,
    model_kernel_syrk,
    model_normalization,
    model_walk,
)

BENCH_SPEC = DatasetSpec(
    name="bench", n_voxels=1200, n_subjects=6, n_epochs=48, epoch_length=12
)


def face_scene_tiles():
    """Table 2's face-scene data as the runtime would tile it: 120-voxel
    panels of one-chunk tiles, on the observatory's default host."""
    return tiled_workload(FACE_SCENE, E5_2670, 120, GRAM_CHUNK_COLS)


class TestInterconnectSpec:
    def test_transfer_is_latency_plus_bandwidth(self):
        net = NetworkModel(latency_s=1e-3, bandwidth_bytes_per_s=1e6)
        # 1 ms latency + 1000 bytes at 1 MB/s: no per-message framing.
        assert net.transfer_time(1000) == pytest.approx(1e-3 + 1000 / 1e6)

    def test_presets_ordered_by_bandwidth(self):
        assert (
            IN_PROCESS.bandwidth_bytes_per_s
            > LOOPBACK_TCP.bandwidth_bytes_per_s
            > TEN_GBE.bandwidth_bytes_per_s
            > GIGABIT_ETHERNET.bandwidth_bytes_per_s
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(latency_s=-1.0, bandwidth_bytes_per_s=1e6)
        with pytest.raises(ValueError):
            NetworkModel(latency_s=0.0, bandwidth_bytes_per_s=0.0)
        with pytest.raises(ValueError):
            LOOPBACK_TCP.transfer_time(-1)


class TestTileComm:
    def test_result_bytes_dominate(self):
        """... and are one partial Gram per chunk of the tile."""
        tile = tile_task(FACE_SCENE, PHI_5110P, 400, 4 * GRAM_CHUNK_COLS, 4)
        assert tile.result_bytes == 4 * 400 * 216 * 216 * 4
        assert tile.result_bytes > 100 * tile.task_bytes
        assert GIGABIT_ETHERNET.transfer_time(tile.result_bytes) > (
            tile.result_bytes / GIGABIT_ETHERNET.bandwidth_bytes_per_s
        )

    @pytest.mark.parametrize("n_epochs", [12, 216])
    def test_payload_ratio_is_chunk_over_epochs(self, n_epochs):
        """A chunk ships ``rows * E^2`` floats where its normalized
        block was ``rows * E * GRAM_CHUNK_COLS``."""
        spec = DatasetSpec(
            name="chunk", n_voxels=GRAM_CHUNK_COLS, n_subjects=12,
            n_epochs=n_epochs, epoch_length=12,
        )
        tile = tile_task(spec, E5_2670, 60, GRAM_CHUNK_COLS, 1)
        block = 60 * n_epochs * GRAM_CHUNK_COLS * 4
        assert block / tile.result_bytes == pytest.approx(
            GRAM_CHUNK_COLS / n_epochs
        )

    def test_panel_comm_ships_kernels_not_correlations(self):
        score = score_task(FACE_SCENE, PHI_5110P, 400)
        assert score.task_bytes == 400 * 216 * 216 * 4 + 400 * 8
        assert score.result_bytes == 400 * 16

    def test_faster_fabric_is_faster(self):
        tile = tile_task(BENCH_SPEC, E5_2670, 100, 600, 1)
        slow = GIGABIT_ETHERNET.transfer_time(tile.result_bytes)
        fast = IN_PROCESS.transfer_time(tile.result_bytes)
        assert fast < slow

    def test_validation(self):
        with pytest.raises(ValueError):
            tile_task(BENCH_SPEC, E5_2670, 0, 10, 1)
        with pytest.raises(ValueError):
            tile_task(BENCH_SPEC, E5_2670, 10, 10, 0)
        with pytest.raises(ValueError):
            score_task(BENCH_SPEC, E5_2670, 0)


class TestTile2dCompute:
    def test_full_width_tile_equals_single_node_models(self):
        counters, seconds = model_walk(
            FACE_SCENE, 400, FACE_SCENE.n_voxels, PHI_5110P
        )
        matmul = model_correlation_matmul(FACE_SCENE, 400, PHI_5110P, "ours")
        norm = model_normalization(FACE_SCENE, 400, PHI_5110P, "merged")
        syrk = model_kernel_syrk(FACE_SCENE, 400, PHI_5110P, "ours")
        assert seconds == pytest.approx(
            matmul.seconds + norm.seconds + syrk.seconds
        )
        assert counters.flops == pytest.approx(
            matmul.counters.flops + norm.counters.flops + syrk.counters.flops
        )

    def test_half_width_tile_costs_half(self):
        full_c, full_s = model_walk(BENCH_SPEC, 100, BENCH_SPEC.n_voxels, E5_2670)
        half_c, half_s = model_walk(BENCH_SPEC, 100, 600, E5_2670)
        assert half_s == pytest.approx(full_s / 2)
        assert half_c.flops == pytest.approx(full_c.flops / 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            model_walk(BENCH_SPEC, 0, 10, E5_2670)
        with pytest.raises(ValueError):
            model_walk(BENCH_SPEC, 10, BENCH_SPEC.n_voxels + 1, E5_2670)


class TestPredictScaleout:
    def test_elapsed_monotone_nonincreasing(self):
        """Over loopback the face-scene tiles are compute-bound: more
        workers never take longer."""
        curve = speedup_curve(face_scene_tiles(), [1, 2, 4, 8], network=LOOPBACK_TCP)
        elapsed = [curve[n][0] for n in (1, 2, 4, 8)]
        assert all(a >= b - 1e-12 for a, b in zip(elapsed, elapsed[1:]))

    def test_comm_floor_bounds_elapsed(self):
        """Over gigabit every partial Gram crosses the master's one link,
        so no worker count beats the link's time for all the bytes —
        and 8 workers stay under 2x (per-worker links said ~7x)."""
        workload = face_scene_tiles()
        (fold,) = workload.folds
        wire = sum(t.task_bytes + t.result_bytes for t in fold.tasks) / (
            GIGABIT_ETHERNET.bandwidth_bytes_per_s
        )
        curve = speedup_curve(workload, [1, 8], network=GIGABIT_ETHERNET)
        for elapsed, _ in curve.values():
            assert elapsed >= wire
        assert curve[8][1] < 2.0

    def test_bytes_are_partial_grams_per_chunk_plus_kernels_per_panel(self):
        """34,470 voxels in 4096-column tiles: 9 tiles of 17 chunks."""
        workload = tiled_workload(FACE_SCENE, PHI_5110P, 34470, 4096)
        (fold,) = workload.folds
        rows, e = 34470, FACE_SCENE.n_epochs
        gram = rows * e * e * 4
        tiles, chunks = 9, 17
        assert len(fold.tasks) == tiles + 1
        assert sum(t.task_bytes + t.result_bytes for t in fold.tasks) == (
            chunks * gram + tiles * (rows * 8 + 32)  # partials up, tasks down
            + gram + rows * 8 + rows * 16  # kernels down, scores up
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            tiled_workload(BENCH_SPEC, E5_2670, 0, 1200)
        with pytest.raises(ValueError, match="Gram chunks"):
            # A tile that cuts a Gram chunk is not a tile the runtime plans.
            tiled_workload(FACE_SCENE, E5_2670, 120, 300)
        with pytest.raises(ValueError):
            speedup_curve(face_scene_tiles(), [])

"""Tests for the scale-out communication + strong-scaling model."""

from __future__ import annotations

import pytest

from repro.core.kernels import GRAM_CHUNK_COLS
from repro.data import FACE_SCENE
from repro.data.presets import DatasetSpec
from repro.hw import E5_2670, PHI_5110P
from repro.perf import (
    GIGABIT_ETHERNET,
    IN_PROCESS,
    LOOPBACK_TCP,
    TEN_GBE_FABRIC,
    TRANSPORT_INTERCONNECTS,
    InterconnectSpec,
    TileCommShape,
    model_correlation_matmul,
    model_kernel_syrk,
    model_normalization,
    model_panel_comm,
    model_tile2d_compute,
    model_tile_comm,
    predict_scaleout,
)

BENCH_SPEC = DatasetSpec(
    name="bench", n_voxels=1200, n_subjects=6, n_epochs=48, epoch_length=12
)


class TestInterconnectSpec:
    def test_transfer_is_latency_plus_bandwidth(self):
        net = InterconnectSpec("t", latency_s=1e-3, bandwidth_bytes_s=1e6)
        # 1 ms latency + (1000 + overhead) bytes at 1 MB/s.
        assert net.transfer_seconds(1000) == pytest.approx(
            1e-3 + (1000 + 256) / 1e6
        )

    def test_zero_messages_is_pure_bandwidth(self):
        net = InterconnectSpec("t", latency_s=1e-3, bandwidth_bytes_s=1e6)
        assert net.transfer_seconds(1e6, messages=0) == pytest.approx(1.0)

    def test_presets_ordered_by_bandwidth(self):
        assert (
            IN_PROCESS.bandwidth_bytes_s
            > LOOPBACK_TCP.bandwidth_bytes_s
            > TEN_GBE_FABRIC.bandwidth_bytes_s
            > GIGABIT_ETHERNET.bandwidth_bytes_s
        )

    def test_transport_map_covers_both_transports(self):
        assert set(TRANSPORT_INTERCONNECTS) == {"thread", "tcp"}

    def test_validation(self):
        with pytest.raises(ValueError):
            InterconnectSpec("t", latency_s=-1.0, bandwidth_bytes_s=1e6)
        with pytest.raises(ValueError):
            InterconnectSpec("t", latency_s=0.0, bandwidth_bytes_s=0.0)
        with pytest.raises(ValueError):
            LOOPBACK_TCP.transfer_seconds(-1)


class TestTileComm:
    def test_result_bytes_dominate(self):
        """... and are one partial Gram per chunk of the tile."""
        shape = TileCommShape(rows=400, n_chunks=4, n_epochs=216)
        est = model_tile_comm(shape, GIGABIT_ETHERNET)
        assert est.bytes_up == 4 * 400 * 216 * 216 * 4
        assert est.bytes_up > 100 * est.bytes_down
        assert est.seconds > est.bytes_up / GIGABIT_ETHERNET.bandwidth_bytes_s

    @pytest.mark.parametrize("n_epochs", [12, 216])
    def test_payload_ratio_is_chunk_over_epochs(self, n_epochs):
        """A chunk ships ``rows * E^2`` floats where its normalized
        block was ``rows * E * GRAM_CHUNK_COLS``."""
        shape = TileCommShape(rows=60, n_chunks=1, n_epochs=n_epochs)
        block = 60 * n_epochs * GRAM_CHUNK_COLS * 4
        assert block / shape.result_bytes == pytest.approx(
            GRAM_CHUNK_COLS / n_epochs
        )

    def test_panel_comm_ships_kernels_not_correlations(self):
        est = model_panel_comm(400, 216, GIGABIT_ETHERNET)
        assert est.bytes_down == 400 * 216 * 216 * 4 + 400 * 8
        assert est.bytes_up == 400 * 16
        assert est.total_bytes == est.bytes_down + est.bytes_up

    def test_faster_fabric_is_faster(self):
        shape = TileCommShape(rows=100, n_chunks=1, n_epochs=48)
        slow = model_tile_comm(shape, GIGABIT_ETHERNET).seconds
        fast = model_tile_comm(shape, IN_PROCESS).seconds
        assert fast < slow

    def test_validation(self):
        with pytest.raises(ValueError):
            TileCommShape(rows=0, n_chunks=1, n_epochs=10)
        with pytest.raises(ValueError):
            TileCommShape(rows=10, n_chunks=0, n_epochs=10)
        with pytest.raises(ValueError):
            model_panel_comm(0, 10, LOOPBACK_TCP)


class TestTile2dCompute:
    def test_full_width_tile_equals_single_node_models(self):
        counters, seconds = model_tile2d_compute(
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
        full_c, full_s = model_tile2d_compute(
            BENCH_SPEC, 100, BENCH_SPEC.n_voxels, E5_2670
        )
        half_c, half_s = model_tile2d_compute(BENCH_SPEC, 100, 600, E5_2670)
        assert half_s == pytest.approx(full_s / 2)
        assert half_c.flops == pytest.approx(full_c.flops / 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            model_tile2d_compute(BENCH_SPEC, 0, 10, E5_2670)
        with pytest.raises(ValueError):
            model_tile2d_compute(
                BENCH_SPEC, 10, BENCH_SPEC.n_voxels + 1, E5_2670
            )


class TestPredictScaleout:
    def test_compute_and_comm_constant_across_worker_counts(self):
        points = predict_scaleout(
            BENCH_SPEC, E5_2670, IN_PROCESS, 300, 300, workers=[1, 2, 4]
        )
        assert len({p.compute_seconds for p in points}) == 1
        assert len({p.comm_seconds for p in points}) == 1
        assert len({p.comm_bytes for p in points}) == 1

    def test_elapsed_monotone_nonincreasing(self):
        points = predict_scaleout(
            BENCH_SPEC, E5_2670, IN_PROCESS, 300, 300, workers=[1, 2, 4, 8]
        )
        elapsed = [p.elapsed_seconds for p in points]
        assert all(a >= b - 1e-12 for a, b in zip(elapsed, elapsed[1:]))

    def test_comm_floor_bounds_elapsed(self):
        points = predict_scaleout(
            FACE_SCENE,
            PHI_5110P,
            GIGABIT_ETHERNET,
            400,
            2048,
            workers=[1, 64],
        )
        for p in points:
            assert p.elapsed_seconds >= p.comm_seconds
        # Paper-scale tiles over gigabit are firmly comm-bound at scale,
        # even shipping (rows, E, E) Grams (9.5x less at E = 216).
        assert points[-1].comm_bound

    def test_bytes_are_partial_grams_per_chunk_plus_kernels_per_panel(self):
        """34,470 voxels in 4096-column tiles: 9 tiles of 17 chunks."""
        (point,) = predict_scaleout(
            FACE_SCENE, PHI_5110P, GIGABIT_ETHERNET, 34470, 4096, workers=[1]
        )
        rows, e = 34470, FACE_SCENE.n_epochs
        gram = rows * e * e * 4
        tiles, chunks = 9, 17
        assert point.comm_bytes == pytest.approx(
            chunks * gram + tiles * (rows * 8 + 32)  # partials up, tasks down
            + gram + rows * 8 + rows * 16  # kernels down, scores up
        )

    def test_in_process_small_run_is_compute_bound_at_one_worker(self):
        (point,) = predict_scaleout(
            BENCH_SPEC, E5_2670, IN_PROCESS, 300, 300, workers=[1]
        )
        assert not point.comm_bound
        assert point.elapsed_seconds == pytest.approx(point.compute_seconds)

    def test_baseline_variant_costs_more_compute(self):
        opt = predict_scaleout(
            BENCH_SPEC, E5_2670, IN_PROCESS, 300, 300, workers=[1]
        )[0]
        base = predict_scaleout(
            BENCH_SPEC,
            E5_2670,
            IN_PROCESS,
            300,
            300,
            workers=[1],
            variant="baseline",
        )[0]
        assert base.compute_seconds > opt.compute_seconds

    def test_validation(self):
        with pytest.raises(ValueError):
            predict_scaleout(BENCH_SPEC, E5_2670, IN_PROCESS, 0, 300, [1])
        with pytest.raises(ValueError):
            predict_scaleout(BENCH_SPEC, E5_2670, IN_PROCESS, 300, 300, [])
        with pytest.raises(ValueError):
            predict_scaleout(BENCH_SPEC, E5_2670, IN_PROCESS, 300, 300, [0])

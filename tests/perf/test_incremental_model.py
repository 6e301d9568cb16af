"""Tests for the incremental (streaming) stage-1/2 access-pattern model."""

import pytest

from repro.data.presets import FACE_SCENE
from repro.hw import E5_2670, PHI_5110P
from repro.perf import (
    ACCUMULATOR_BYTES,
    TR_UPDATE_FLOPS_PER_ELEMENT,
    TR_UPDATE_PASSES,
    IncrementalStepShape,
    amortized_step_seconds,
    incremental_speedup,
    incremental_step_shape_for,
    model_full_recompute_step,
    model_incremental_epoch_close,
    model_incremental_tr_update,
)


def _shape(**overrides):
    defaults = dict(
        n_assigned=20, n_voxels=34_470, epoch_len=12, window_epochs=16,
    )
    defaults.update(overrides)
    return IncrementalStepShape(**defaults)


class TestShape:
    def test_tr_update_is_window_independent(self):
        """The flat step: FLOPs and bytes do not grow with the window."""
        small = _shape(window_epochs=8)
        large = _shape(window_epochs=800)
        assert small.tr_update_flops == large.tr_update_flops
        assert small.accumulator_bytes == large.accumulator_bytes
        assert (
            model_incremental_tr_update(small, E5_2670).seconds
            == model_incremental_tr_update(large, E5_2670).seconds
        )

    def test_epoch_close_flops_match_batch_gemm(self):
        sh = _shape()
        assert sh.epoch_close_flops == 2.0 * 20 * 12 * 34_470
        assert (
            model_incremental_epoch_close(sh, E5_2670).counters.flops
            == sh.epoch_close_flops
        )

    def test_accumulator_is_float64(self):
        sh = _shape()
        assert sh.accumulator_bytes == 20 * 34_470 * ACCUMULATOR_BYTES
        assert sh.tr_update_flops == (
            TR_UPDATE_FLOPS_PER_ELEMENT * sh.plane_elements
        )

    def test_shape_for_spec(self):
        sh = incremental_step_shape_for(FACE_SCENE, 120)
        assert sh.n_voxels == FACE_SCENE.n_voxels
        assert sh.epoch_len == FACE_SCENE.epoch_length
        assert sh.window_epochs == FACE_SCENE.n_epochs
        assert incremental_step_shape_for(
            FACE_SCENE, 120, window_epochs=9
        ).window_epochs == 9

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            _shape(n_assigned=0)
        with pytest.raises(ValueError, match="window_epochs"):
            _shape(window_epochs=0)


class TestEstimates:
    def test_naive_recompute_scales_with_window(self):
        """The naive comparator pays the whole window every TR."""
        shallow = model_full_recompute_step(
            _shape(window_epochs=8), E5_2670
        ).seconds
        deep = model_full_recompute_step(
            _shape(window_epochs=64), E5_2670
        ).seconds
        assert deep > 4 * shallow

    def test_tr_update_traffic_is_pass_count_times_accumulator(self):
        sh = _shape()
        est = model_incremental_tr_update(sh, E5_2670)
        plane_lines = sh.accumulator_bytes / E5_2670.l2.line_bytes
        assert est.counters.l2_misses >= TR_UPDATE_PASSES * plane_lines
        # The per-voxel vectors add little on top.
        assert est.counters.l2_misses < (TR_UPDATE_PASSES + 1) * plane_lines

    def test_speedup_beats_measured_floor(self):
        """The model must predict above the incremental benchmark's 5x
        floor at both the benchmark scale and the paper dataset."""
        bench = IncrementalStepShape(
            n_assigned=20, n_voxels=2_000, epoch_len=12, window_epochs=16
        )
        assert incremental_speedup(bench, E5_2670) > 5.0
        full = incremental_step_shape_for(FACE_SCENE, 20)
        assert incremental_speedup(full, E5_2670) > 5.0

    def test_speedup_grows_with_window(self):
        grow = [
            incremental_speedup(_shape(window_epochs=w), E5_2670)
            for w in (8, 32, 128)
        ]
        assert grow[0] < grow[1] < grow[2]

    def test_amortized_between_update_and_close(self):
        sh = _shape()
        update = model_incremental_tr_update(sh, E5_2670).seconds
        close = model_incremental_epoch_close(sh, E5_2670).seconds
        amortized = amortized_step_seconds(sh, E5_2670)
        assert update < amortized < update + close

    def test_runs_on_both_machines(self):
        sh = _shape()
        for hw in (E5_2670, PHI_5110P):
            assert model_incremental_tr_update(sh, hw).seconds > 0
            assert model_incremental_epoch_close(sh, hw).seconds > 0
            assert model_full_recompute_step(sh, hw).seconds > 0

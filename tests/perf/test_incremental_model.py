"""Tests for the closed loop's per-epoch feedback kernel model."""

import pytest

from repro.hw import E5_2670, PHI_5110P
from repro.perf import IncrementalStepShape, model_incremental_epoch_close


def _shape(**overrides):
    defaults = dict(n_assigned=20, n_voxels=34_470, epoch_len=12)
    defaults.update(overrides)
    return IncrementalStepShape(**defaults)


class TestShape:
    def test_epoch_close_flops_match_batch_gemm(self):
        sh = _shape()
        assert sh.epoch_close_flops == 2.0 * 20 * 12 * 34_470
        assert (
            model_incremental_epoch_close(sh, E5_2670).counters.flops
            == sh.epoch_close_flops
        )

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            _shape(n_assigned=0)
        with pytest.raises(ValueError, match=">= 1"):
            _shape(epoch_len=0)


class TestEstimates:
    def test_runs_on_both_machines(self):
        sh = _shape()
        for hw in (E5_2670, PHI_5110P):
            assert model_incremental_epoch_close(sh, hw).seconds > 0

"""Tests for the matmul performance models, including validation of the
miss-count arithmetic against the trace-driven cache simulator."""

import numpy as np
import pytest

from repro.bench.paperdata import TABLE5_MATMUL, TABLE6_COUNTERS
from repro.bench.tables import within_factor
from repro.data import FACE_SCENE, DatasetSpec
from repro.hw import E5_2670, PHI_5110P, CacheLevel, SetAssociativeCache
from repro.perf.matmul_model import (
    MKL_SYRK_COLUMN_BLOCK,
    OURS_CORR_VOXEL_BLOCK,
    corr_shape_for,
    model_correlation_matmul,
    model_kernel_syrk,
    syrk_shape_for,
)


class TestShapes:
    def test_corr_flops_match_paper(self):
        # Section 5.4.2: 21.443 billion FLOPs for the 120-voxel task.
        shape = corr_shape_for(FACE_SCENE, 120)
        assert shape.flops == pytest.approx(21.443e9, rel=1e-3)

    def test_syrk_flops_match_paper(self):
        # Section 5.4.2: 172.14 billion FLOPs for 120 voxels.
        shape = syrk_shape_for(FACE_SCENE, 120)
        assert shape.flops == pytest.approx(172.14e9, rel=1e-3)

    def test_corr_output_elements(self):
        shape = corr_shape_for(FACE_SCENE, 120)
        assert shape.output_elements == 216 * 120 * 34470

    def test_syrk_uses_loso_training_epochs(self):
        shape = syrk_shape_for(FACE_SCENE, 120)
        assert shape.m == 204


class TestCorrModel:
    def test_paper_times_within_tolerance(self):
        ours = model_correlation_matmul(FACE_SCENE, 120, PHI_5110P, "ours")
        mkl = model_correlation_matmul(FACE_SCENE, 120, PHI_5110P, "mkl")
        assert within_factor(ours.milliseconds, TABLE5_MATMUL[("ours", "corr")][0], 1.3)
        assert within_factor(mkl.milliseconds, TABLE5_MATMUL[("mkl", "corr")][0], 1.3)

    def test_ours_faster_than_mkl(self):
        ours = model_correlation_matmul(FACE_SCENE, 120, PHI_5110P, "ours")
        mkl = model_correlation_matmul(FACE_SCENE, 120, PHI_5110P, "mkl")
        assert ours.seconds < mkl.seconds

    def test_vi_values(self):
        ours = model_correlation_matmul(FACE_SCENE, 120, PHI_5110P, "ours")
        mkl = model_correlation_matmul(FACE_SCENE, 120, PHI_5110P, "mkl")
        assert ours.counters.vectorization_intensity == pytest.approx(
            TABLE6_COUNTERS["ours"][2]
        )
        assert mkl.counters.vectorization_intensity == pytest.approx(
            TABLE6_COUNTERS["mkl"][2]
        )

    def test_blocked_rereads_hit_remote_l2(self):
        ours = model_correlation_matmul(FACE_SCENE, 120, PHI_5110P, "ours")
        mkl = model_correlation_matmul(FACE_SCENE, 120, PHI_5110P, "mkl")
        assert ours.counters.l2_remote_hits > 0
        assert mkl.counters.l2_remote_hits == 0
        # DRAM misses are dominated by the C write-allocates, equal for both.
        assert ours.counters.l2_misses == pytest.approx(
            mkl.counters.l2_misses, rel=1e-6
        )

    def test_bad_implementation(self):
        with pytest.raises(ValueError):
            model_correlation_matmul(FACE_SCENE, 120, PHI_5110P, "cublas")


class TestSyrkModel:
    def test_paper_times_within_tolerance(self):
        ours = model_kernel_syrk(FACE_SCENE, 120, PHI_5110P, "ours")
        mkl = model_kernel_syrk(FACE_SCENE, 120, PHI_5110P, "mkl")
        assert within_factor(ours.milliseconds, TABLE5_MATMUL[("ours", "syrk")][0], 1.3)
        assert within_factor(mkl.milliseconds, TABLE5_MATMUL[("mkl", "syrk")][0], 1.3)

    def test_gflops_ordering_matches_table5(self):
        ours_corr = model_correlation_matmul(FACE_SCENE, 120, PHI_5110P, "ours")
        ours_syrk = model_kernel_syrk(FACE_SCENE, 120, PHI_5110P, "ours")
        # "the latter reached 3.4x higher GFLOPS" (writes dominate corr)
        assert ours_syrk.gflops > 2.5 * ours_corr.gflops

    def test_mkl_rereads_a_many_times(self):
        ours = model_kernel_syrk(FACE_SCENE, 120, PHI_5110P, "ours")
        mkl = model_kernel_syrk(FACE_SCENE, 120, PHI_5110P, "mkl")
        passes = -(-204 // MKL_SYRK_COLUMN_BLOCK)
        assert mkl.counters.l2_misses == pytest.approx(
            passes * ours.counters.l2_misses, rel=0.05
        )

    def test_xeon_llc_absorbs_rereads(self):
        """On the E5-2670 the LLC serves most MKL re-read passes."""
        knc = model_kernel_syrk(FACE_SCENE, 120, PHI_5110P, "mkl")
        xeon = model_kernel_syrk(FACE_SCENE, 120, E5_2670, "mkl")
        assert xeon.counters.l2_misses < 0.5 * knc.counters.l2_misses
        assert xeon.counters.l2_remote_hits > 0


class TestCacheSimValidation:
    """The analytic miss formulas, checked against the real cache sim on
    a scaled-down geometry."""

    SMALL = DatasetSpec(
        name="small", n_voxels=512, n_subjects=2, n_epochs=4, epoch_length=8
    )

    def cache(self):
        # scaled-down 'L2': 4 KB, 64 B lines
        return SetAssociativeCache(CacheLevel(4096, 64, 8))

    def test_streaming_write_allocate_count(self):
        """C writes miss once per line, as the corr model assumes."""
        shape = corr_shape_for(self.SMALL, 16)
        c = self.cache()
        line_elems = 16
        n_lines = int(shape.output_elements // line_elems)
        addrs = (np.arange(n_lines, dtype=np.int64) * 64) + (1 << 20)
        misses = c.access_trace(addrs)
        assert misses == n_lines  # exactly the model's c_write_lines

    def test_syrk_single_pass_misses(self):
        """A panel walk reads each A line exactly once -> model's a_lines."""
        shape = syrk_shape_for(self.SMALL, 1)
        line_elems = 16
        a_lines = shape.a_elements // line_elems
        c = self.cache()
        # one sequential pass over A
        addrs = np.arange(a_lines, dtype=np.int64) * 64
        assert c.access_trace(addrs) == a_lines

    def test_syrk_multi_pass_misses_scale_with_passes(self):
        """Re-reading an over-capacity A re-misses every line, the
        mechanism behind MKL's pass multiplier."""
        line_elems = 16
        a_lines = 256  # 16 KB working set vs 4 KB cache
        c = self.cache()
        addrs = np.arange(a_lines, dtype=np.int64) * 64
        total = sum(c.access_trace(addrs) for _ in range(5))
        assert total == 5 * a_lines


class TestEstimateFormatting:
    def test_summary_contains_key_fields(self):
        est = model_correlation_matmul(FACE_SCENE, 120, PHI_5110P, "ours")
        s = est.summary()
        assert "matmul/ours/corr" in s
        assert "GFLOPS" in s

    def test_milliseconds_property(self):
        est = model_correlation_matmul(FACE_SCENE, 120, PHI_5110P, "ours")
        assert est.milliseconds == pytest.approx(est.seconds * 1e3)

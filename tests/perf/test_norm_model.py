"""Tests for the normalization performance model."""

import pytest

from repro.bench.paperdata import TABLE1_BASELINE
from repro.bench.tables import within_factor
from repro.data import FACE_SCENE
from repro.hw import E5_2670, PHI_5110P
from repro.perf.norm_model import NORM_SWEEPS, model_normalization


class TestSweeps:
    def test_merged_fewest_sweeps(self):
        assert (
            NORM_SWEEPS["merged"].ref_sweeps
            < NORM_SWEEPS["separated"].ref_sweeps
            < NORM_SWEEPS["baseline"].ref_sweeps
        )

    def test_merged_barely_misses(self):
        assert NORM_SWEEPS["merged"].miss_sweeps < 0.5
        assert NORM_SWEEPS["separated"].miss_sweeps > 1.5


#: Table 1's normalization row: (time_ms, mem_refs, l2_misses, VI).
PAPER_MS, PAPER_REFS, PAPER_MISSES, PAPER_VI = TABLE1_BASELINE["normalization"]


class TestAgainstPaper:
    def test_baseline_time_table1(self):
        est = model_normalization(FACE_SCENE, 120, PHI_5110P, "baseline")
        assert within_factor(est.milliseconds, PAPER_MS, 1.25)

    def test_baseline_refs_table1(self):
        est = model_normalization(FACE_SCENE, 120, PHI_5110P, "baseline")
        assert within_factor(est.counters.mem_refs, PAPER_REFS, 1.15)

    def test_baseline_misses_table1(self):
        est = model_normalization(FACE_SCENE, 120, PHI_5110P, "baseline")
        assert within_factor(est.counters.l2_misses, PAPER_MISSES, 1.15)

    def test_baseline_vi_table1(self):
        est = model_normalization(FACE_SCENE, 120, PHI_5110P, "baseline")
        assert est.counters.vectorization_intensity == pytest.approx(PAPER_VI)

    def test_merged_faster_than_separated(self):
        merged = model_normalization(FACE_SCENE, 120, PHI_5110P, "merged")
        sep = model_normalization(FACE_SCENE, 120, PHI_5110P, "separated")
        assert merged.seconds < sep.seconds
        assert merged.counters.mem_refs < sep.counters.mem_refs
        assert merged.counters.l2_misses < sep.counters.l2_misses

    def test_bad_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            model_normalization(FACE_SCENE, 120, PHI_5110P, "fused")


class TestScaling:
    def test_linear_in_voxels(self):
        a = model_normalization(FACE_SCENE, 60, PHI_5110P, "merged")
        b = model_normalization(FACE_SCENE, 120, PHI_5110P, "merged")
        assert b.counters.mem_refs == pytest.approx(2 * a.counters.mem_refs)

    def test_xeon_estimate_finite_and_faster_hiding(self):
        knc = model_normalization(FACE_SCENE, 120, PHI_5110P, "baseline")
        xeon = model_normalization(FACE_SCENE, 120, E5_2670, "baseline")
        assert xeon.seconds > 0
        # The OOO host exposes less of its miss latency.
        assert (
            xeon.breakdown.latency_exposed / max(xeon.breakdown.latency_raw, 1e-12)
            < knc.breakdown.latency_exposed / max(knc.breakdown.latency_raw, 1e-12)
        )

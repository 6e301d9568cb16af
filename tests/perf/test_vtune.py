"""Tests for the vTune-style report layer."""

import pytest

from repro.bench.paperdata import TABLE1_BASELINE
from repro.bench.tables import within_factor
from repro.data import FACE_SCENE
from repro.hw import PHI_5110P
from repro.perf.matmul_model import model_correlation_matmul, model_kernel_syrk
from repro.perf.vtune import (
    baseline_report,
    format_report,
    row_from_estimate,
)


class TestRowConstruction:
    def test_single_estimate(self):
        est = model_correlation_matmul(FACE_SCENE, 120, PHI_5110P, "mkl")
        row = row_from_estimate("corr", est)
        assert row.time_ms == pytest.approx(est.milliseconds)
        assert row.mem_refs == pytest.approx(est.counters.mem_refs)

    def test_combined_estimates_sum(self):
        a = model_correlation_matmul(FACE_SCENE, 120, PHI_5110P, "mkl")
        b = model_kernel_syrk(FACE_SCENE, 120, PHI_5110P, "mkl")
        row = row_from_estimate("matmul", a, b)
        assert row.time_ms == pytest.approx(a.milliseconds + b.milliseconds)
        assert row.mem_refs == pytest.approx(
            a.counters.mem_refs + b.counters.mem_refs
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            row_from_estimate("x")


class TestBaselineReport:
    """Reproduction of Table 1 within tolerance."""

    @pytest.fixture(scope="class")
    def rows(self):
        return {
            r.name: r for r in baseline_report(FACE_SCENE, 120, PHI_5110P)
        }

    def test_three_rows(self, rows):
        assert set(rows) == {"Matrix multiplication", "Normalization", "LibSVM"}

    def test_matmul_row(self, rows):
        r = rows["Matrix multiplication"]
        p_ms, p_refs, p_misses, p_vi = TABLE1_BASELINE["matmul"]
        assert within_factor(r.time_ms, p_ms, 1.2)
        assert within_factor(r.mem_refs, p_refs, 1.1)
        assert within_factor(r.l2_misses, p_misses, 1.15)
        assert r.vector_intensity == pytest.approx(p_vi)

    def test_normalization_row(self, rows):
        r = rows["Normalization"]
        p_ms, p_refs, p_misses, _ = TABLE1_BASELINE["normalization"]
        assert within_factor(r.time_ms, p_ms, 1.2)
        assert within_factor(r.mem_refs, p_refs, 1.15)
        assert within_factor(r.l2_misses, p_misses, 1.15)

    def test_libsvm_row(self, rows):
        r = rows["LibSVM"]
        p_ms, p_refs, _, p_vi = TABLE1_BASELINE["libsvm"]
        assert within_factor(r.time_ms, p_ms, 1.2)
        assert within_factor(r.mem_refs, p_refs, 1.2)
        assert r.vector_intensity == pytest.approx(p_vi)

    def test_formatting(self, rows):
        text = format_report(list(rows.values()), title="Table 1")
        assert "Table 1" in text
        assert "LibSVM" in text
        assert "VI" in text

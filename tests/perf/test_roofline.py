"""Tests for the roofline helpers."""

from pathlib import Path

import pytest

from repro.data import FACE_SCENE
from repro.hw import E5_2670, PHI_5110P, PerfCounters
from repro.obs.span import Span
from repro.perf.matmul_model import model_correlation_matmul, model_kernel_syrk
from repro.perf.roofline import (
    attainable_gflops,
    format_roofline_report,
    ridge_intensity,
    roofline_point,
    roofline_rows,
)

GOLDEN = Path(__file__).parent / "golden" / "roofline_report.txt"


class TestAttainable:
    def test_bandwidth_region(self):
        # AI = 1 flop/byte on the Phi: 150 GFLOPS << peak.
        assert attainable_gflops(PHI_5110P, 1.0) == pytest.approx(150.0)

    def test_compute_region(self):
        assert attainable_gflops(PHI_5110P, 1000.0) == pytest.approx(
            PHI_5110P.peak_sp_gflops
        )

    def test_ridge_point(self):
        ridge = PHI_5110P.peak_sp_gflops / PHI_5110P.mem_bandwidth_gbs
        below = attainable_gflops(PHI_5110P, ridge * 0.99)
        assert below < PHI_5110P.peak_sp_gflops

    def test_negative_ai(self):
        with pytest.raises(ValueError):
            attainable_gflops(PHI_5110P, -1.0)


class TestRooflinePoint:
    def test_corr_memory_bound_syrk_not(self):
        """The paper's asymmetry: corr (write-heavy) sits far left of
        the syrk on the roofline."""
        corr = model_correlation_matmul(FACE_SCENE, 120, PHI_5110P, "ours")
        syrk = model_kernel_syrk(FACE_SCENE, 120, PHI_5110P, "ours")
        p_corr = roofline_point(PHI_5110P, corr.counters, corr.seconds)
        p_syrk = roofline_point(PHI_5110P, syrk.counters, syrk.seconds)
        assert p_corr.arithmetic_intensity < p_syrk.arithmetic_intensity
        assert p_syrk.achieved_gflops > p_corr.achieved_gflops

    def test_efficiency_bounded(self):
        syrk = model_kernel_syrk(FACE_SCENE, 120, PHI_5110P, "ours")
        p = roofline_point(PHI_5110P, syrk.counters, syrk.seconds)
        assert p.efficiency is not None
        assert 0.0 < p.efficiency <= 1.05

    def test_no_traffic_is_compute_bound(self):
        p = roofline_point(PHI_5110P, PerfCounters(flops=1e9))
        assert not p.memory_bound
        assert p.attainable_gflops == PHI_5110P.peak_sp_gflops
        assert p.achieved_gflops is None
        assert p.efficiency is None

    def test_bad_elapsed(self):
        with pytest.raises(ValueError):
            roofline_point(PHI_5110P, PerfCounters(flops=1.0), 0.0)


class TestRidgeIntensity:
    def test_is_peak_over_bandwidth(self):
        assert ridge_intensity(E5_2670) == pytest.approx(
            E5_2670.peak_sp_gflops / E5_2670.mem_bandwidth_gbs
        )
        # The Xeon host's ridge sits near 6.5 flop/byte.
        assert ridge_intensity(E5_2670) == pytest.approx(6.5, abs=0.1)

    def test_splits_the_roofline(self):
        ridge = ridge_intensity(PHI_5110P)
        assert attainable_gflops(PHI_5110P, ridge * 0.9) < (
            PHI_5110P.peak_sp_gflops
        )
        assert attainable_gflops(PHI_5110P, ridge * 1.1) == pytest.approx(
            PHI_5110P.peak_sp_gflops
        )


def _enriched_trace():
    """Deterministic hand-built enriched kernel spans.

    Two calls of a bandwidth-starved fused kernel plus one
    compute-heavy scoring call; numbers are round so the aggregate
    placements are easy to verify by hand.
    """

    def kernel(span_id, name, t0, wall, flops, l2_misses, predicted):
        return Span(
            span_id=span_id, name=name, kind="kernel", t0=t0,
            t1=t0 + wall, parent_id=None,
            metrics={
                "wall_seconds": wall,
                "pc.flops": flops,
                "pc.l2_misses": l2_misses,
                "predicted_seconds": predicted,
            },
        )

    return [
        kernel(0, "correlate_normalize_batched", 0.0, 0.05, 5e9, 2e7, 0.04),
        kernel(1, "correlate_normalize_batched", 0.1, 0.05, 5e9, 2e7, 0.04),
        kernel(2, "score_voxels", 0.2, 0.2, 4e10, 1e6, 0.1),
        # Un-modeled helper: no pc.flops, must be skipped.
        Span(
            span_id=3, name="score_batch", kind="kernel", t0=0.4, t1=0.41,
            metrics={"wall_seconds": 0.01},
        ),
    ]


class TestRooflineRows:
    def test_aggregates_by_kernel_in_first_appearance_order(self):
        rows = roofline_rows(_enriched_trace(), E5_2670)
        assert [r.kernel for r in rows] == [
            "correlate_normalize_batched", "score_voxels"
        ]
        fused, score = rows
        assert fused.calls == 2
        assert fused.wall_seconds == pytest.approx(0.1)
        assert fused.predicted_seconds == pytest.approx(0.08)
        # AI = 1e10 flops / (4e7 lines * 64 B) = ~3.9: bandwidth-bound.
        assert fused.point.arithmetic_intensity == pytest.approx(
            1e10 / (4e7 * 64)
        )
        assert fused.point.memory_bound
        assert fused.point.achieved_gflops == pytest.approx(100.0)
        # AI = 4e10 / 6.4e7 = 625: far right of the ridge.
        assert score.point.arithmetic_intensity > ridge_intensity(E5_2670)
        assert not score.point.memory_bound

    def test_unmodeled_spans_skipped(self):
        rows = roofline_rows(_enriched_trace(), E5_2670)
        assert "score_batch" not in {r.kernel for r in rows}

    def test_predicted_gflops_rescales_achieved(self):
        fused = roofline_rows(_enriched_trace(), E5_2670)[0]
        # At the model's own (faster) time the rate is higher by
        # wall/predicted.
        assert fused.predicted_gflops == pytest.approx(
            fused.point.achieved_gflops * 0.1 / 0.08
        )

    def test_empty_trace_is_empty(self):
        assert roofline_rows([], E5_2670) == []


class TestGoldenReport:
    def test_report_matches_golden(self):
        """Frozen rendering of the deterministic trace on the Xeon
        host; regenerate with tests/perf/golden/README.md's one-liner
        if the format changes on purpose."""
        report = format_roofline_report(
            roofline_rows(_enriched_trace(), E5_2670), E5_2670
        )
        assert report == GOLDEN.read_text().rstrip("\n")

    def test_header_states_the_machine_ceilings(self):
        report = format_roofline_report([], E5_2670)
        assert report.startswith(
            "roofline: peak 333 GFLOPS, bw 51 GB/s, ridge 6.5 flop/byte"
        )

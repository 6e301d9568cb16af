"""Enrichment + report of 2-D tiled traces (the scale-out observatory)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import GIGABIT_ETHERNET, IN_PROCESS
from repro.core import FCMAConfig
from repro.data import FACE_SCENE
from repro.exec import RunContext, make_executor
from repro.hw import E5_2670
from repro.obs.perf import (
    MODELED_KERNELS,
    enrich_spans,
    format_perf_report,
    format_scaleout_section,
    predict_kernel,
)
from repro.perf import (
    model_correlation_matmul,
    model_kernel_syrk,
    model_normalization,
    model_svm_cv,
)


@pytest.fixture(scope="module")
def tiled_spans(tiny_dataset):
    """One tiled thread-transport run of the tiny dataset, enriched."""
    ctx = RunContext(
        FCMAConfig(task_voxels=40, target_block=32)
    )
    executor = make_executor(
        "master-worker", n_workers=2, transport="thread", partition="tiles"
    )
    executor.run(tiny_dataset, ctx)
    spans = ctx.tracer.spans()
    assert enrich_spans(spans) > 0
    return spans


class TestTileKernelEnrichment:
    def test_tile_kernels_are_modeled(self):
        """A tile is the walk and a score item is score: their spans are
        the serial graph's, and the retired names are gone."""
        assert "correlate_normalize_batched" in MODELED_KERNELS
        assert "score_voxels" in MODELED_KERNELS
        assert "correlate_normalize_tile2d" not in MODELED_KERNELS
        assert "score_panel" not in MODELED_KERNELS
        assert "incremental_tr_update" not in MODELED_KERNELS
        assert len(MODELED_KERNELS) == 6

    def test_tile_spans_gain_predictions(self, tiled_spans):
        tiles = [
            s
            for s in tiled_spans
            if s.kind == "kernel" and s.name == "correlate_normalize_batched"
        ]
        assert tiles
        for span in tiles:
            assert span.metrics["predicted_seconds"] > 0
            assert span.metrics["pc.flops"] > 0

    def test_score_panel_spans_gain_predictions(self, tiled_spans):
        panels = [
            s
            for s in tiled_spans
            if s.kind == "kernel" and s.name == "score_voxels"
        ]
        assert panels
        for span in panels:
            assert span.metrics["predicted_seconds"] > 0

    def test_tile_prediction_scales_with_column_extent(self):
        spec = FACE_SCENE
        full = predict_kernel(
            "correlate_normalize_batched", spec, 400, E5_2670,
            cols=spec.n_voxels,
        )
        half = predict_kernel(
            "correlate_normalize_batched", spec, 400, E5_2670,
            cols=spec.n_voxels // 2,
        )
        assert full is not None and half is not None
        assert half[1] == pytest.approx(full[1] / 2, rel=1e-6)

    def test_full_width_tile_matches_blocked_merge_models(self):
        predicted = predict_kernel(
            "correlate_normalize_batched", FACE_SCENE, 400, E5_2670,
            cols=FACE_SCENE.n_voxels,
        )
        assert predicted is not None
        # ... plus the Gram: a tile returns its partial Grams.
        expected = (
            model_correlation_matmul(FACE_SCENE, 400, E5_2670, "ours").seconds
            + model_normalization(FACE_SCENE, 400, E5_2670, "merged").seconds
            + model_kernel_syrk(FACE_SCENE, 400, E5_2670, "ours").seconds
        )
        assert predicted[1] == pytest.approx(expected)

    def test_score_panel_matches_score_voxels(self):
        """A panel's score item is the ``score_voxels`` span, and it does
        not carry the syrk on the optimized path: a tiled run's tiles
        and the serial walk's Gram chunks do."""
        assert predict_kernel("score_panel", FACE_SCENE, 400, E5_2670) is None
        voxels = predict_kernel("score_voxels", FACE_SCENE, 400, E5_2670)
        assert voxels is not None
        assert voxels[1] == pytest.approx(
            model_svm_cv(FACE_SCENE, 400, E5_2670, "phisvm").seconds
        )

    def test_score_panel_variant_selects_backend(self):
        opt = predict_kernel("score_voxels", FACE_SCENE, 400, E5_2670)
        base = predict_kernel(
            "score_voxels", FACE_SCENE, 400, E5_2670, variant="baseline"
        )
        assert base is not None and opt is not None
        # The baseline scores a materialized block: MKL syrk + LibSVM.
        assert (
            model_kernel_syrk(FACE_SCENE, 400, E5_2670, "mkl").seconds
            + model_svm_cv(FACE_SCENE, 400, E5_2670, "libsvm").seconds
        ) == pytest.approx(base[1])
        assert base[1] != pytest.approx(opt[1])


class TestScaleoutSection:
    def test_section_renders_for_tiled_trace(self, tiled_spans):
        section = format_scaleout_section(tiled_spans)
        assert section is not None
        assert "scale-out wire model" in section
        assert "tile transfer(s)" in section
        assert "panel transfer(s)" in section
        assert "predicted strong scaling" in section

    def test_section_absent_without_tile_spans(self, tiny_dataset):
        ctx = RunContext(
            FCMAConfig(task_voxels=40, target_block=32)
        )
        make_executor("serial").run(tiny_dataset, ctx)
        assert format_scaleout_section(ctx.tracer.spans()) is None

    def test_explicit_interconnect_named_in_header(self, tiled_spans):
        """The header names the link by what it is: latency, bandwidth."""
        section = format_scaleout_section(tiled_spans, net=GIGABIT_ETHERNET)
        assert section is not None
        assert section.splitlines()[0] == (
            "scale-out wire model (master link: 60 us latency, 0.12 GB/s)"
        )

    def test_full_report_includes_section(self, tiled_spans):
        report = format_perf_report(tiled_spans)
        assert "correlate_normalize_batched" in report
        assert "scale-out wire model" in report

    def test_slower_fabric_predicts_more_wire_time(self, tiled_spans):
        fast = format_scaleout_section(tiled_spans, net=IN_PROCESS)
        slow = format_scaleout_section(tiled_spans, net=GIGABIT_ETHERNET)
        assert fast is not None and slow is not None

        def wire_ms(section: str) -> float:
            line = next(
                ln for ln in section.splitlines() if "tile transfer" in ln
            )
            return float(line.split()[-3])

        assert wire_ms(slow) > wire_ms(fast)


class TestWireModelFollowsTheWire:
    def test_predicted_bytes_match_the_tcp_counters(self):
        """Two worker processes, 2 panels x 2 tiles (2 + 1 chunks) at
        N > 2 chunks: the model's bytes, replayed from the trace, are
        the bytes the sockets counted once the dataset broadcast is
        taken out (every byte is counted once sent and once received)."""
        from repro.core.kernels import GRAM_CHUNK_COLS
        from repro.data import SyntheticConfig, generate_dataset

        dataset = generate_dataset(
            SyntheticConfig(
                n_voxels=2 * GRAM_CHUNK_COLS + 400, n_subjects=4,
                epochs_per_subject=8, epoch_length=12, n_informative=8,
                seed=3, name="wide-tiny",
            )
        )
        ctx = RunContext(FCMAConfig(task_voxels=40, svm_tol=0.1))
        make_executor(
            "master-worker", n_workers=2, transport="tcp", partition="tiles"
        ).run(dataset, ctx, np.arange(0, 80 * 50, 50))
        spans = ctx.tracer.spans()
        tiles = [s for s in spans if s.name == "correlate_normalize_batched"]
        assert sorted(s.metrics["gram_chunks"] for s in tiles) == [1, 1, 2, 2]
        for span in tiles:
            chunk_gram = 40 * dataset.n_epochs**2 * 4
            assert span.metrics["bytes_out"] == span.metrics["gram_chunks"] * chunk_gram

        section = format_scaleout_section(spans)
        assert section is not None
        predicted_mb = sum(
            float(line.split(":")[1].split()[0])
            for line in section.splitlines()
            if "transfer(s)" in line
        )
        # The spawned ranks map rank 0's windows: no dataset crosses the
        # wire, so the counters are the work items' traffic alone.
        counters = ctx.metadata["counters"]
        for direction in ("comm.bytes_sent", "comm.bytes_recv"):
            measured_mb = counters[direction] / 1e6
            assert predicted_mb == pytest.approx(measured_mb, rel=0.10), direction

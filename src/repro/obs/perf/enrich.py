"""Counter enrichment: attach model predictions to kernel spans.

The tracer records what *happened* (wall seconds per kernel); the
``repro.perf`` models know what *should* happen on a given machine
(elapsed time, memory references, L2 misses, GFLOPS — the paper's
Table 1/5–8 vocabulary).  :func:`enrich_spans` joins the two on the
spans themselves: every kernel span a task's stages emit gains the
modeled :class:`~repro.hw.counters.PerfCounters` under the existing
``pc.`` metric namespace plus ``predicted_seconds`` /
``predicted_gflops``, so a single trace file carries measured-vs-
predicted side by side.

The join key is the kernel span *name* (the task stages' fixed
vocabulary) plus the geometry the run span records
(:meth:`repro.exec.context.RunContext.run_span` with a dataset) — no
re-execution, no access to the original arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from ...data.presets import DatasetSpec
from ...hw.counters import PerfCounters
from ...hw.spec import HardwareSpec
from ...perf import (
    IncrementalStepShape,
    KernelEstimate,
    model_correlation_matmul,
    model_incremental_epoch_close,
    model_kernel_syrk,
    model_normalization,
    model_sparse_stage12,
    model_svm_cv,
    model_walk,
)
from ..span import Span, SpanNode, build_tree

__all__ = [
    "MODELED_KERNELS",
    "TraceGeometry",
    "default_hardware",
    "enrich_spans",
    "geometry_from_spans",
    "predict_kernel",
]


def default_hardware() -> HardwareSpec:
    """The observatory's default machine model (the Xeon host)."""
    from ...hw import E5_2670

    return E5_2670


@dataclass(frozen=True)
class TraceGeometry:
    """Dataset geometry recovered from a trace (or given directly)."""

    n_voxels: int
    n_subjects: int
    n_epochs: int
    epoch_length: int
    name: str = "trace"

    def spec(self) -> DatasetSpec:
        """The equivalent :class:`~repro.data.presets.DatasetSpec`.

        Raises ``ValueError`` when the recorded epoch count is not
        divisible by the subject count (the spec invariant).
        """
        return DatasetSpec(
            name=self.name,
            n_voxels=self.n_voxels,
            n_subjects=self.n_subjects,
            n_epochs=self.n_epochs,
            epoch_length=self.epoch_length,
        )

    @classmethod
    def from_attrs(cls, attrs: Mapping[str, Any]) -> "TraceGeometry | None":
        """Geometry from a run span's attributes, if complete."""
        try:
            return cls(
                n_voxels=int(attrs["n_voxels"]),
                n_subjects=int(attrs["n_subjects"]),
                n_epochs=int(attrs["n_epochs"]),
                epoch_length=int(attrs["epoch_length"]),
                name=str(attrs.get("dataset") or "trace"),
            )
        except (KeyError, TypeError, ValueError):
            return None

    @classmethod
    def from_dataset(cls, dataset: Any) -> "TraceGeometry":
        """Geometry from any object exposing the four dimensions."""
        return cls(
            n_voxels=int(dataset.n_voxels),
            n_subjects=int(dataset.n_subjects),
            n_epochs=int(dataset.n_epochs),
            epoch_length=int(dataset.epoch_length),
            name=str(getattr(dataset, "name", None) or "trace"),
        )


def geometry_from_spans(spans: Iterable[Span]) -> TraceGeometry | None:
    """Recover geometry from the trace's run span, if recorded."""
    for span in spans:
        if span.kind == "run":
            geometry = TraceGeometry.from_attrs(span.attrs)
            if geometry is not None:
                return geometry
    return None


def _variant_from_spans(spans: Iterable[Span]) -> str | None:
    for span in spans:
        if span.kind == "run":
            variant = span.attrs.get("variant")
            if variant is not None:
                return str(variant)
    return None


def _combine(estimates: Iterable[KernelEstimate]) -> tuple[PerfCounters, float]:
    """Sum counters and modeled seconds across composed kernels.

    The fused pipeline nodes cover more than one modeled kernel (the
    merged correlate+normalize, the syrk+SVM scoring stage), so their
    span prediction is the sum of the parts.
    """
    counters = PerfCounters()
    seconds = 0.0
    for estimate in estimates:
        counters += estimate.counters
        seconds += estimate.seconds
    return counters, seconds


def predict_kernel(
    name: str,
    spec: DatasetSpec,
    n_assigned: int,
    hw: HardwareSpec,
    *,
    variant: str = "optimized-batched",
    voxel_sweep: int | None = None,
    target_block: int | None = None,
    density: float | None = None,
    epoch_len: int | None = None,
    cols: int | None = None,
) -> tuple[PerfCounters, float] | None:
    """Model one kernel span's counters and elapsed seconds.

    ``name`` is a stage-graph kernel span name; returns ``None`` for
    kernels with no model (solver internals).  One body, one answer:
    the Gram walk is priced over its ``cols`` (default: the full width,
    a task) whoever ran it, and ``score_voxels`` by ``variant`` alone
    (baseline -> MKL syrk + LibSVM; everything else -> PhiSVM, the walk
    carried the syrk).  The sparse kernel additionally needs its
    recorded tile geometry and kept fraction (``target_block``,
    ``density`` — span metrics of ``correlate_normalize_sparse``).
    """
    if n_assigned < 1:
        return None
    if name == "correlate_normalize_sparse":
        sweep = voxel_sweep if voxel_sweep else n_assigned
        tb = target_block if target_block else spec.n_voxels
        return _combine([
            model_sparse_stage12(
                spec, n_assigned, hw, sweep, tb,
                density if density is not None else 1.0,
            )
        ])
    if name == "incremental_epoch_close":
        # The rtfmri loop's feedback kernel: one completed epoch's
        # selected-voxel correlations with the whole brain.
        shape = IncrementalStepShape(
            n_assigned=n_assigned,
            n_voxels=spec.n_voxels,
            epoch_len=epoch_len if epoch_len else spec.epoch_length,
        )
        return _combine([model_incremental_epoch_close(shape, hw)])
    if name == "correlate_baseline":
        return _combine([model_correlation_matmul(spec, n_assigned, hw, "mkl")])
    if name == "normalize_separated":
        return _combine([model_normalization(spec, n_assigned, hw, "separated")])
    if name == "correlate_normalize_batched":
        # The Gram walk (``exec.stage_graph.walk``), whoever ran it: the
        # blocked gemm + merged normalization + kernel syrk over the
        # walk's column range.  At full width that is the paper's merged
        # stage 1/2 + blocked syrk (Tables 7 + 5) — a task; a 2-D tile
        # of the scale-out path is the same model at ``cols / N``.
        width = cols if cols else spec.n_voxels
        return model_walk(spec, n_assigned, min(width, spec.n_voxels), hw)
    if name == "score_voxels":
        # Stage 3b (``exec.stage_graph.score``).  Only the baseline
        # scores a materialized block and so carries the syrk;
        # everywhere else the walk did.
        if variant == "baseline":
            return _combine([
                model_kernel_syrk(spec, n_assigned, hw, "mkl"),
                model_svm_cv(spec, n_assigned, hw, "libsvm"),
            ])
        return _combine([model_svm_cv(spec, n_assigned, hw, "phisvm")])
    return None


#: Kernel span names :func:`predict_kernel` has a model for.
MODELED_KERNELS = (
    "correlate_baseline",
    "normalize_separated",
    "correlate_normalize_batched",
    "correlate_normalize_sparse",
    "incremental_epoch_close",
    "score_voxels",
)


#: ``predict_kernel`` keyword <- the span metric that records it.
_GEOMETRY_METRICS = {
    "cols": "cols",
    "voxel_sweep": "voxel_sweep",
    "target_block": "target_block",
    "epoch_len": "trs",
}


def enrich_spans(
    spans: Iterable[Span],
    *,
    geometry: TraceGeometry | None = None,
    hw: HardwareSpec | None = None,
    variant: str | None = None,
) -> int:
    """Attach model predictions to every modeled kernel span, in place.

    Geometry and pipeline variant default to what the trace's run span
    recorded; ``hw`` defaults to the Xeon host model.  Each enriched
    span gains the modeled ``pc.*`` counter fields (nonzero only) plus
    ``predicted_seconds`` and ``predicted_gflops``.  Spans already
    carrying ``predicted_seconds`` are left untouched (idempotent), as
    are spans whose kernel has no model or whose geometry violates the
    spec invariants.  Returns the number of spans enriched.
    """
    span_list = list(spans)
    if geometry is None:
        geometry = geometry_from_spans(span_list)
    if geometry is None:
        return 0
    try:
        spec = geometry.spec()
    except ValueError:
        return 0
    if hw is None:
        hw = default_hardware()
    if variant is None:
        variant = _variant_from_spans(span_list) or "optimized-batched"

    # Map stage/kernel spans to their enclosing task's voxel count so
    # kernels without a ``voxels`` metric (normalize_separated) still
    # resolve their task size.
    task_voxels: dict[int, int] = {}
    nodes: list[SpanNode] = []
    for root in build_tree(span_list):
        for node in root.walk():
            nodes.append(node)
            if node.span.kind == "task":
                n = node.span.attrs.get("n_voxels") or node.span.metrics.get(
                    "voxels"
                )
                if n:
                    for child in node.walk():
                        task_voxels[child.span.span_id] = int(n)

    enriched = 0
    for node in nodes:
        span = node.span
        if span.kind != "kernel" or span.name not in MODELED_KERNELS:
            continue
        if "predicted_seconds" in span.metrics:
            continue
        metrics = span.metrics
        # Spans that record their own geometry are believed: the walk's
        # row/column extent, the sparse kernel's tile and kept fraction
        # (deriving its sweep from the tile count would conflate the two
        # tiling axes), a streaming step's epoch length.
        n_assigned = int(
            metrics.get("rows")
            or metrics.get("voxels")
            or task_voxels.get(span.span_id, 0)
        )
        recorded: dict[str, Any] = {
            keyword: int(metrics[metric])
            for keyword, metric in _GEOMETRY_METRICS.items()
            if metrics.get(metric)
        }
        if "density" in metrics:
            recorded["density"] = float(metrics["density"])
        try:
            predicted = predict_kernel(
                span.name, spec, n_assigned, hw, variant=variant, **recorded
            )
        except (ValueError, ZeroDivisionError):
            continue
        if predicted is None:
            continue
        counters, seconds = predicted
        for field_name in (
            "mem_reads",
            "mem_writes",
            "l1_misses",
            "l2_misses",
            "l2_remote_hits",
            "flops",
            "vpu_instructions",
            "vector_elements",
            "scalar_instructions",
        ):
            value = float(getattr(counters, field_name))
            if value:
                span.set_metric(f"pc.{field_name}", value)
        span.set_metric("predicted_seconds", seconds)
        if seconds > 0 and counters.flops > 0:
            span.set_metric(
                "predicted_gflops", counters.flops / seconds / 1e9
            )
        enriched += 1
    return enriched

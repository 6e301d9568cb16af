"""Human-readable predicted-vs-measured reports from enriched traces.

One enriched trace file (``fcma run --trace``, which applies
:func:`enrich_spans`) carries everything the paper's
per-kernel evaluation tables need: measured wall time, model-predicted
time, modeled memory references / L2 misses, and GFLOPS.  This module
renders that into the ``fcma perf report`` text: a per-kernel
comparison table followed by the roofline placement
(:func:`repro.perf.roofline.format_roofline_report`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ...cluster import (
    LOOPBACK_TCP,
    NetworkModel,
    TaskSpec,
    score_task,
    speedup_curve,
    tile_task,
    tiled_workload,
)
from ...hw.spec import HardwareSpec
from ...perf import (
    dense_crossover_density,
    density_sweep,
    format_density_sweep,
    format_roofline_report,
    roofline_rows,
)
from ..span import Span
from .enrich import default_hardware, geometry_from_spans

__all__ = [
    "KernelComparison",
    "format_density_section",
    "format_perf_report",
    "format_scaleout_section",
    "kernel_comparisons",
]


@dataclass(frozen=True)
class KernelComparison:
    """One kernel's measured-vs-predicted aggregate across a trace."""

    kernel: str
    calls: int
    measured_seconds: float
    predicted_seconds: float
    #: Modeled memory references (element granular).
    mem_refs: float
    #: Modeled DRAM-served L2 misses (line granular).
    l2_misses: float
    #: GFLOPS at the measured time.
    achieved_gflops: float

    @property
    def ratio(self) -> float:
        """Measured over predicted seconds (1.0 = perfect model)."""
        if self.predicted_seconds <= 0:
            return 0.0
        return self.measured_seconds / self.predicted_seconds


def kernel_comparisons(spans: Iterable[Span]) -> list[KernelComparison]:
    """Aggregate enriched kernel spans by name, first-appearance order.

    Spans without a prediction (un-modeled kernels, un-enriched traces)
    are skipped.
    """
    order: list[str] = []
    acc: dict[str, dict[str, float]] = {}
    for span in spans:
        if span.kind != "kernel" or "predicted_seconds" not in span.metrics:
            continue
        if span.name not in acc:
            order.append(span.name)
            acc[span.name] = {
                "calls": 0.0,
                "measured": 0.0,
                "predicted": 0.0,
                "refs": 0.0,
                "l2": 0.0,
                "flops": 0.0,
            }
        slot = acc[span.name]
        slot["calls"] += 1.0
        slot["measured"] += span.metrics.get("wall_seconds", span.duration)
        slot["predicted"] += span.metrics["predicted_seconds"]
        slot["refs"] += span.metrics.get("pc.mem_reads", 0.0) + span.metrics.get(
            "pc.mem_writes", 0.0
        )
        slot["l2"] += span.metrics.get("pc.l2_misses", 0.0)
        slot["flops"] += span.metrics.get("pc.flops", 0.0)

    rows: list[KernelComparison] = []
    for name in order:
        slot = acc[name]
        achieved = (
            slot["flops"] / slot["measured"] / 1e9 if slot["measured"] > 0 else 0.0
        )
        rows.append(
            KernelComparison(
                kernel=name,
                calls=int(slot["calls"]),
                measured_seconds=slot["measured"],
                predicted_seconds=slot["predicted"],
                mem_refs=slot["refs"],
                l2_misses=slot["l2"],
                achieved_gflops=achieved,
            )
        )
    return rows


def format_density_section(
    spans: Iterable[Span], hw: HardwareSpec | None = None
) -> str | None:
    """Density-sweep table for a trace with sparse stage-1/2 spans.

    Aggregates every ``correlate_normalize_sparse`` kernel span (summed
    voxels as the task size, tile geometry from the first span, measured
    density as total nnz over total elements), then tabulates the
    model's predicted sparse-vs-dense seconds over a density grid, the
    dense crossover point, and the measured wall time on the row nearest
    the measured density.  Returns ``None`` when the trace has no sparse
    spans or no recorded geometry.
    """
    if hw is None:
        hw = default_hardware()
    span_list = list(spans)
    sparse = [
        s
        for s in span_list
        if s.kind == "kernel" and s.name == "correlate_normalize_sparse"
    ]
    if not sparse:
        return None
    geometry = geometry_from_spans(span_list)
    if geometry is None:
        return None
    try:
        spec = geometry.spec()
    except ValueError:
        return None
    n_assigned = int(sum(s.metrics.get("voxels", 0.0) for s in sparse))
    sweep = int(sparse[0].metrics.get("voxel_sweep", 0)) or n_assigned
    target_block = (
        int(sparse[0].metrics.get("target_block", 0)) or spec.n_voxels
    )
    if n_assigned < 1:
        return None
    elements = sum(s.metrics.get("elements", 0.0) for s in sparse)
    nnz = sum(s.metrics.get("nnz", 0.0) for s in sparse)
    wall = sum(s.metrics.get("wall_seconds", s.duration) for s in sparse)
    measured = (nnz / elements, wall) if elements > 0 else None
    rows = density_sweep(spec, n_assigned, hw, sweep, target_block)
    crossover = dense_crossover_density(spec, n_assigned, hw, sweep, target_block)
    header = (
        f"sparse stage 1/2 density sweep "
        f"(V={n_assigned}, sweep={sweep}, target_block={target_block}"
        + (f", measured density {measured[0]:.4f}" if measured else "")
        + ")"
    )
    return header + "\n" + format_density_sweep(
        rows, crossover=crossover, measured=measured
    )


def format_scaleout_section(
    spans: Iterable[Span],
    hw: HardwareSpec | None = None,
    net: NetworkModel | None = None,
) -> str | None:
    """Wire-model table for a trace of the 2-D tiled partition.

    A tile or score work item runs its half of a task bare, so its
    kernel span hangs directly off its ``task`` span (a graph's hangs
    off a stage): a tile is such a span carrying the walk's ``cols``
    metric, a panel score the ``score_voxels`` beside it.  Each becomes
    the tiled workload's item (:func:`repro.cluster.tile_task` /
    :func:`repro.cluster.score_task`; a tile span's ``gram_chunks``
    metric sizes the partial Grams it shipped) and its two messages are
    priced on the chosen link (default: loopback TCP, the CI smoke
    topology); then the simulator's strong-scaling curve for the
    trace's tile geometry is appended.  Returns ``None`` when the trace
    has no tile spans or no recorded geometry.
    """
    if hw is None:
        hw = default_hardware()
    if net is None:
        net = LOOPBACK_TCP
    span_list = list(spans)
    kinds: dict[int | None, str] = {s.span_id: s.kind for s in span_list}
    items = [
        s
        for s in span_list
        if s.kind == "kernel" and kinds.get(s.parent_id) == "task"
    ]
    tiles = [s for s in items if "cols" in s.metrics]
    if not tiles:
        return None
    geometry = geometry_from_spans(span_list)
    if geometry is None:
        return None
    try:
        spec = geometry.spec()
    except ValueError:
        return None
    panels = [s for s in items if s.name == "score_voxels"]

    def wire(tasks: list[TaskSpec]) -> tuple[float, float]:
        """(MB, ms) of the tasks' messages on ``net``."""
        nbytes = sum(t.task_bytes + t.result_bytes for t in tasks)
        seconds = sum(
            net.transfer_time(t.task_bytes) + net.transfer_time(t.result_bytes)
            for t in tasks
        )
        return nbytes / 1e6, seconds * 1e3

    def metric(span: Span, name: str) -> int:
        return int(span.metrics.get(name, 0)) or 1

    tile_mb, tile_ms = wire([
        tile_task(
            spec, hw, metric(s, "rows"), metric(s, "cols"),
            metric(s, "gram_chunks"),
        )
        for s in tiles
    ])
    lines = [
        "scale-out wire model (master link: "
        f"{net.latency_s * 1e6:.0f} us latency, "
        f"{net.bandwidth_bytes_per_s / 1e9:.2f} GB/s)",
        f"  {len(tiles)} tile transfer(s): "
        f"{tile_mb:>8.2f} MB  {tile_ms:>8.2f} ms predicted",
    ]
    if panels:
        panel_mb, panel_ms = wire(
            [score_task(spec, hw, metric(s, "voxels")) for s in panels]
        )
        lines.append(
            f"  {len(panels)} panel transfer(s): "
            f"{panel_mb:>8.2f} MB  {panel_ms:>8.2f} ms predicted"
        )
    rows = max(metric(s, "rows") for s in tiles)
    cols = max(metric(s, "cols") for s in tiles)
    curve = speedup_curve(
        tiled_workload(spec, hw, rows, cols), [1, 2, 4, 8], network=net
    )
    lines.append(
        f"  predicted strong scaling (rows={rows}, cols={cols}; "
        "simulated on the master's link):"
    )
    lines.append(
        "    " + "  ".join(f"{n}w {speedup:.2f}x" for n, (_, speedup) in curve.items())
    )
    return "\n".join(lines)


def format_perf_report(
    spans: Iterable[Span], hw: HardwareSpec | None = None
) -> str:
    """The ``fcma perf report`` text for one enriched trace.

    Section 1: per-kernel measured vs predicted milliseconds, the
    measured/predicted ratio, modeled references and L2 misses (the
    paper's table vocabulary).  Section 2: the roofline placement of
    the same kernels on the chosen machine model.  Section 3 (only when
    the trace ran the sparse variant): the density sweep of
    :func:`format_density_section`.  Section 4 (only when the trace ran
    the 2-D tiled partition): the wire model and predicted scaling of
    :func:`format_scaleout_section`.
    """
    if hw is None:
        hw = default_hardware()
    span_list = list(spans)
    comparisons = kernel_comparisons(span_list)
    if not comparisons:
        return (
            "no enriched kernel spans in trace "
            "(write it with `fcma run --trace` or call enrich_spans first)"
        )
    lines = [
        "predicted vs measured (per kernel, summed over calls)",
        f"{'kernel':<30} {'calls':>5} {'meas ms':>10} {'pred ms':>10} "
        f"{'ratio':>6} {'refs':>9} {'L2miss':>9} {'GFLOPS':>8}",
    ]
    for row in comparisons:
        lines.append(
            f"{row.kernel:<30} {row.calls:>5d} "
            f"{row.measured_seconds * 1e3:>10.2f} "
            f"{row.predicted_seconds * 1e3:>10.2f} "
            f"{row.ratio:>6.2f} "
            f"{row.mem_refs / 1e9:>8.2f}G "
            f"{row.l2_misses / 1e6:>8.1f}M "
            f"{row.achieved_gflops:>8.2f}"
        )
    lines.append("")
    lines.append(format_roofline_report(roofline_rows(span_list, hw), hw))
    density_section = format_density_section(span_list, hw)
    if density_section is not None:
        lines.append("")
        lines.append(density_section)
    scaleout_section = format_scaleout_section(span_list, hw)
    if scaleout_section is not None:
        lines.append("")
        lines.append(scaleout_section)
    return "\n".join(lines)

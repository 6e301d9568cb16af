"""The performance observatory: predicted-vs-measured as an observable.

Two pieces, layered on the span tracer (:mod:`repro.obs`) and the
analytic models (:mod:`repro.perf`):

* **enrichment** (:mod:`.enrich`) — attach modeled hardware counters
  and predicted time/GFLOPS to the kernel spans a traced run emits;
* **report** (:mod:`.report`) — the human predicted-vs-measured +
  roofline text rendered from an enriched trace.

Both are surfaced by ``fcma run --trace`` and ``fcma perf report``;
``fcma perf calibrate`` gates the claims ledger in
:mod:`repro.bench.experiments`.  Whether a change made a run slower is
judged by the end-to-end benchmark's paired runs
(``benchmarks/e2e``), not here.

This subpackage is intentionally *not* imported by ``repro.obs``'s
``__init__`` — it depends on :mod:`repro.perf`, which itself imports
the obs span layer; importing it lazily keeps the layering acyclic.
"""

from .enrich import (
    MODELED_KERNELS,
    TraceGeometry,
    default_hardware,
    enrich_spans,
    geometry_from_spans,
    predict_kernel,
)
from .report import (
    KernelComparison,
    format_density_section,
    format_perf_report,
    format_scaleout_section,
    kernel_comparisons,
)

__all__ = [
    "KernelComparison",
    "MODELED_KERNELS",
    "TraceGeometry",
    "default_hardware",
    "enrich_spans",
    "format_density_section",
    "format_perf_report",
    "format_scaleout_section",
    "geometry_from_spans",
    "kernel_comparisons",
    "predict_kernel",
]

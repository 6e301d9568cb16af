"""The performance observatory: predicted-vs-measured as an observable.

Three pieces, layered on the span tracer (:mod:`repro.obs`) and the
analytic models (:mod:`repro.perf`):

* **enrichment** (:mod:`.enrich`) — attach modeled hardware counters
  and predicted time/GFLOPS to the kernel spans a traced run emits;
* **history registry** (:mod:`.registry`) — an append-only JSON-lines
  store of structured run records (git sha, timestamp, machine
  fingerprint, config hash, metrics);
* **drift detection** (:mod:`.drift`) — robust comparison of a record
  against its series' history, with timing metrics judged only against
  same-machine samples.

Plus the human output: the predicted-vs-measured + roofline report
(:mod:`.report`).  All of it is surfaced by the ``fcma perf`` CLI
family, whose paper gate reads the claims ledger in
:mod:`repro.bench.experiments`.

This subpackage is intentionally *not* imported by ``repro.obs``'s
``__init__`` — it depends on :mod:`repro.perf`, which itself imports
the obs span layer; importing it lazily keeps the layering acyclic.
"""

from .drift import (
    DEFAULT_EXACT_TOLERANCE,
    DEFAULT_TIMING_SLACK_SECONDS,
    DEFAULT_TIMING_TOLERANCE,
    DriftFinding,
    DriftReport,
    check_record,
    is_timing_name,
)
from .enrich import (
    MODELED_KERNELS,
    TraceGeometry,
    default_hardware,
    enrich_spans,
    geometry_from_spans,
    predict_kernel,
)
from .registry import (
    DEFAULT_HISTORY_PATH,
    RECORD_SCHEMA,
    BenchmarkRecord,
    HistoryRegistry,
    config_fingerprint,
    current_git_sha,
    default_history_path,
    ingest_legacy_bench,
    machine_fingerprint,
    metrics_from_trace,
    record_from_trace,
)
from .report import (
    KernelComparison,
    format_density_section,
    format_perf_report,
    format_scaleout_section,
    kernel_comparisons,
)

__all__ = [
    "BenchmarkRecord",
    "DEFAULT_EXACT_TOLERANCE",
    "DEFAULT_HISTORY_PATH",
    "DEFAULT_TIMING_SLACK_SECONDS",
    "DEFAULT_TIMING_TOLERANCE",
    "DriftFinding",
    "DriftReport",
    "HistoryRegistry",
    "KernelComparison",
    "MODELED_KERNELS",
    "RECORD_SCHEMA",
    "TraceGeometry",
    "check_record",
    "config_fingerprint",
    "current_git_sha",
    "default_hardware",
    "default_history_path",
    "enrich_spans",
    "format_density_section",
    "format_perf_report",
    "format_scaleout_section",
    "geometry_from_spans",
    "ingest_legacy_bench",
    "is_timing_name",
    "kernel_comparisons",
    "machine_fingerprint",
    "metrics_from_trace",
    "predict_kernel",
    "record_from_trace",
]

"""Drift detection: robust checks of a run against recorded history.

The comparison machinery mirrors the tracing-overhead test's statistics:
noisy wall-clock metrics are judged against the *median* of the
historical sample (immune to the occasional scheduler spike that skews
means), within a wide relative tolerance band; deterministic metrics —
model predictions, modeled counters, structural counts — must match
essentially exactly, because two runs of the same code on the same
geometry have no legitimate reason to differ.

Two comparability rules keep the checks honest:

* wall-clock metrics only compare against history recorded on the
  **same machine** (fingerprint digest match) — cross-machine timing
  deltas are hardware news, not regressions;
* deterministic metrics compare against *all* history of the series,
  machine-independent.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .registry import BenchmarkRecord

__all__ = [
    "DEFAULT_EXACT_TOLERANCE",
    "DEFAULT_TIMING_SLACK_SECONDS",
    "DEFAULT_TIMING_TOLERANCE",
    "DriftFinding",
    "DriftReport",
    "check_record",
    "is_timing_name",
]

#: Relative band for wall-clock metrics (generous: single-run jitter).
DEFAULT_TIMING_TOLERANCE = 0.5
#: Relative band for deterministic metrics (model outputs, counts).
DEFAULT_EXACT_TOLERANCE = 1e-6
#: Absolute slack for *seconds-valued* timing metrics: below this delta
#: a relative band is noise, not signal (a 0.2 ms planner call jitters
#: by 3x between otherwise identical runs).
DEFAULT_TIMING_SLACK_SECONDS = 0.01

#: Metric-name suffixes that mark wall-clock-dependent quantities.
_TIMING_SUFFIXES = ("wall_seconds", ".seconds", "_seconds", "model_ratio")
#: The subset of timing metrics measured in seconds (absolute slack
#: applies); ratios and speedups are unitless and get none of their own
#: (a ``model_ratio`` inherits its sibling ``wall_seconds``' slack).
_SECONDS_SUFFIXES = ("wall_seconds", ".seconds", "_seconds")
#: Substrings that mark a metric as model-derived (deterministic) even
#: when its suffix looks like a timing quantity.
_DETERMINISTIC_MARKERS = ("predicted", "pc.", "floor")


def is_timing_name(name: str) -> bool:
    """Whether a registry metric name is wall-clock-dependent.

    ``kernel.x.wall_seconds`` and ``run.wall_seconds`` are timing;
    ``kernel.x.predicted_seconds`` and ``kernel.x.pc.l2_misses`` are
    deterministic model outputs; counts (``run.tasks``, ``tiles``) are
    deterministic.  Speedup-style ratios of two measured times
    (``model_ratio``, bare ``speedup``) count as timing because both
    numerator and denominator jitter.
    """
    if any(marker in name for marker in _DETERMINISTIC_MARKERS):
        return False
    if name.endswith(_TIMING_SUFFIXES) or name == "speedup":
        return True
    return False


@dataclass(frozen=True)
class DriftFinding:
    """One metric's verdict against its historical baseline."""

    metric: str
    current: float
    #: Median of the comparable history sample.
    baseline: float
    #: Relative deviation |current - baseline| / max(|baseline|, eps).
    deviation: float
    tolerance: float
    #: Records that contributed to the baseline.
    n_history: int
    #: True when the metric was judged as wall-clock-dependent.
    timing: bool
    #: Absolute |current - baseline| slack, in the metric's own unit
    #: (seconds-valued timing metrics, and a ``model_ratio`` with a
    #: sibling ``wall_seconds``); a delta inside it passes regardless of
    #: the relative deviation.
    slack: float = 0.0

    @property
    def ok(self) -> bool:
        if abs(self.current - self.baseline) <= self.slack:
            return True
        return self.deviation <= self.tolerance


@dataclass
class DriftReport:
    """The full verdict of one record against history."""

    name: str
    findings: list[DriftFinding] = field(default_factory=list)
    #: Metrics that could not be checked (no comparable history) and why.
    skipped: dict[str, str] = field(default_factory=dict)

    @property
    def failures(self) -> list[DriftFinding]:
        return [f for f in self.findings if not f.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def checked(self) -> int:
        return len(self.findings)

    def summary(self) -> str:
        """One-line human verdict."""
        status = "OK" if self.ok else "DRIFT"
        return (
            f"{status}: {self.name}: {self.checked} metrics checked, "
            f"{len(self.failures)} drifted, {len(self.skipped)} skipped"
        )


def _relative_deviation(current: float, baseline: float) -> float:
    scale = max(abs(baseline), 1e-12)
    return abs(current - baseline) / scale


def check_record(
    current: BenchmarkRecord,
    history: Sequence[BenchmarkRecord] | Iterable[BenchmarkRecord],
    *,
    timing_tolerance: float = DEFAULT_TIMING_TOLERANCE,
    exact_tolerance: float = DEFAULT_EXACT_TOLERANCE,
    timing_slack_seconds: float = DEFAULT_TIMING_SLACK_SECONDS,
    min_history: int = 1,
) -> DriftReport:
    """Judge ``current`` against the historical records of its series.

    For every metric of the current record, the comparable history
    sample is selected (same-machine records for timing metrics, all
    records otherwise), its median becomes the baseline, and the
    relative deviation is checked against the class tolerance.  Seconds-
    valued timing metrics additionally pass whenever the absolute delta
    is under ``timing_slack_seconds`` — sub-millisecond kernels jitter
    by integer factors without meaning anything.  The same kernel's
    ``X.model_ratio`` (measured / predicted) moves only with
    ``X.wall_seconds`` because the prediction is deterministic, so it
    passes whenever that wall-time delta is inside the slack.  Metrics
    with fewer than ``min_history`` comparable observations are skipped
    (reported, not failed) — a fresh series cannot drift.
    """
    if timing_tolerance <= 0 or exact_tolerance <= 0:
        raise ValueError("tolerances must be positive")
    if timing_slack_seconds < 0:
        raise ValueError("timing_slack_seconds must be >= 0")
    if min_history < 1:
        raise ValueError("min_history must be >= 1")
    report = DriftReport(name=current.name)
    prior = [
        r
        for r in history
        if r.name == current.name and r is not current
    ]
    if not prior:
        for metric in current.metrics:
            report.skipped[metric] = "no history for series"
        return report

    same_machine = [r for r in prior if r.machine_id == current.machine_id]
    for metric, value in sorted(current.metrics.items()):
        timing = is_timing_name(metric)
        pool = same_machine if timing else prior
        sample = [r.metrics[metric] for r in pool if metric in r.metrics]
        if len(sample) < min_history:
            report.skipped[metric] = (
                "no same-machine history" if timing and prior else "no history"
            )
            continue
        baseline = statistics.median(sample)
        slack = 0.0
        if timing and metric.endswith(_SECONDS_SUFFIXES):
            slack = timing_slack_seconds
        elif timing and metric.endswith(".model_ratio"):
            # ratio = wall / predicted: the wall-time slack, rescaled by
            # 1 / predicted into ratio units.
            wall = current.metrics.get(
                metric.removesuffix("model_ratio") + "wall_seconds", 0.0
            )
            if wall > 0:
                slack = timing_slack_seconds * value / wall
        report.findings.append(
            DriftFinding(
                metric=metric,
                current=value,
                baseline=baseline,
                deviation=_relative_deviation(value, baseline),
                tolerance=timing_tolerance if timing else exact_tolerance,
                n_history=len(sample),
                timing=timing,
                slack=slack,
            )
        )
    return report

"""The benchmark history registry: structured run records, append-only.

Every measured run — a benchmark suite, ``fcma run --trace --history``,
``fcma perf record`` — appends one :class:`BenchmarkRecord` to a
JSON-lines store (default ``benchmarks/results/history.jsonl``, override
with the ``FCMA_HISTORY_PATH`` environment variable or an explicit
path).  A record carries everything drift detection needs to decide
which comparisons are meaningful: the git sha and timestamp (what code,
when), a machine fingerprint (wall-clock metrics only compare within
one machine), a config hash (surfaced in reports when setups differ),
and a flat metric dict.

The registry also ingests the legacy root-level ``BENCH_*.json`` blobs
(:func:`ingest_legacy_bench`), so the pre-registry benchmark trajectory
joins the same history stream.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from dataclasses import (
    MISSING,
    Field,
    dataclass,
    field,
    fields,
    is_dataclass,
)
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from ..span import Span, build_tree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..span import SpanNode

__all__ = [
    "RECORD_SCHEMA",
    "DEFAULT_HISTORY_PATH",
    "BenchmarkRecord",
    "HistoryRegistry",
    "config_fingerprint",
    "current_git_sha",
    "default_history_path",
    "ingest_legacy_bench",
    "machine_fingerprint",
    "metrics_from_trace",
    "record_from_trace",
]

#: Schema tag written into every record; bump on breaking changes.
RECORD_SCHEMA = "repro.bench/v1"

#: The repo-conventional store, relative to the working directory.
DEFAULT_HISTORY_PATH = Path("benchmarks") / "results" / "history.jsonl"

#: Environment override for the store location.
_ENV_VAR = "FCMA_HISTORY_PATH"


def default_history_path() -> Path:
    """The history store path (``FCMA_HISTORY_PATH`` wins if set)."""
    env = os.environ.get(_ENV_VAR)
    return Path(env) if env else DEFAULT_HISTORY_PATH


def machine_fingerprint() -> dict[str, Any]:
    """Identity of the measuring machine (wall-time comparability key)."""
    return {
        "node": platform.node(),
        "platform": platform.platform(),
        "arch": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 0,
    }


def current_git_sha(cwd: str | Path | None = None) -> str:
    """The working tree's HEAD sha, or ``"unknown"`` outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=None if cwd is None else str(cwd),
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def config_fingerprint(*parts: Any) -> str:
    """Short stable hash of what was *configured*.

    A dataclass contributes only the fields whose value differs from
    the field's default, so adding or deleting a defaulted field — a
    knob nobody set — leaves every existing hash alone and a history
    series survives the refactor.  Mappings contribute all their items,
    other objects their ``__dict__``; ordering is canonicalized so equal
    configs hash equal across processes.
    """

    def _default(f: Field[Any]) -> Any:
        # MISSING for a required field, which no value equals.
        return f.default if f.default_factory is MISSING else f.default_factory()

    def _plain(obj: Any) -> Any:
        if obj is None or isinstance(obj, (bool, int, float, str)):
            return obj
        if isinstance(obj, Mapping):
            return {str(k): _plain(v) for k, v in sorted(obj.items())}
        if isinstance(obj, (list, tuple)):
            return [_plain(v) for v in obj]
        if is_dataclass(obj) and not isinstance(obj, type):
            return {
                f.name: _plain(value)
                for f in fields(obj)
                if (value := getattr(obj, f.name)) != _default(f)
            }
        inner = getattr(obj, "__dict__", None)
        if inner:
            return {str(k): _plain(v) for k, v in sorted(inner.items())}
        return repr(obj)

    blob = json.dumps([_plain(p) for p in parts], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _fingerprint_id(fingerprint: Mapping[str, Any]) -> str:
    blob = json.dumps(dict(fingerprint), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass
class BenchmarkRecord:
    """One structured measurement: who ran what, where, and the numbers."""

    #: Logical series name; drift checks compare records of one name.
    name: str
    #: Flat metric dict (see :func:`metrics_from_trace` for the trace
    #: vocabulary; benchmark suites use their own keys).
    metrics: dict[str, float] = field(default_factory=dict)
    git_sha: str = field(default_factory=current_git_sha)
    #: ISO-8601 UTC timestamp of the measurement.
    timestamp: str = field(
        default_factory=lambda: time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        )
    )
    machine: dict[str, Any] = field(default_factory=machine_fingerprint)
    #: Hash of the run configuration (dataset geometry + pipeline knobs).
    config_hash: str = ""
    #: Free-form annotations (preset name, executor, legacy source, ...).
    attrs: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("record name must be non-empty")
        self.metrics = {
            str(k): float(v) for k, v in dict(self.metrics).items()
        }

    @property
    def machine_id(self) -> str:
        """Short digest of the machine fingerprint (comparability key)."""
        return _fingerprint_id(self.machine)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (one JSON line in the store)."""
        return {
            "type": "record",
            "schema": RECORD_SCHEMA,
            "name": self.name,
            "git_sha": self.git_sha,
            "timestamp": self.timestamp,
            "machine": dict(self.machine),
            "config_hash": self.config_hash,
            "metrics": dict(self.metrics),
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BenchmarkRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(
            name=str(payload["name"]),
            metrics={
                str(k): float(v)
                for k, v in dict(payload.get("metrics", {})).items()
            },
            git_sha=str(payload.get("git_sha", "unknown")),
            timestamp=str(payload.get("timestamp", "")),
            machine=dict(payload.get("machine", {})),
            config_hash=str(payload.get("config_hash", "")),
            attrs=dict(payload.get("attrs", {})),
        )


class HistoryRegistry:
    """Append-only JSON-lines store of :class:`BenchmarkRecord`.

    Records append atomically enough for the use case (one ``write`` of
    one line in append mode); loading tolerates foreign or malformed
    lines so a partially-written or hand-edited store never takes the
    drift gate down with it.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else default_history_path()

    def append(self, record: BenchmarkRecord) -> Path:
        """Write one record; creates the store (and parents) on demand."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record.to_dict(), sort_keys=True)
        with open(self.path, "a") as fh:
            fh.write(line + "\n")
        return self.path

    def load(self) -> list[BenchmarkRecord]:
        """All parseable records, in file (append) order."""
        if not self.path.exists():
            return []
        records: list[BenchmarkRecord] = []
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(payload, dict) or payload.get("type") != "record":
                continue
            try:
                records.append(BenchmarkRecord.from_dict(payload))
            except (KeyError, TypeError, ValueError):
                continue
        return records

    def records(self, name: str | None = None) -> list[BenchmarkRecord]:
        """Records, optionally restricted to one series name."""
        loaded = self.load()
        if name is None:
            return loaded
        return [r for r in loaded if r.name == name]

    def latest(self, name: str | None = None) -> BenchmarkRecord | None:
        """The newest (last-appended) record of a series, if any."""
        matching = self.records(name)
        return matching[-1] if matching else None

    def names(self) -> list[str]:
        """Distinct series names, in first-appearance order."""
        seen: dict[str, None] = {}
        for record in self.load():
            seen.setdefault(record.name, None)
        return list(seen)


# -- trace -> record -------------------------------------------------------

#: Kernel metrics folded into a trace record, besides wall/predicted.
_KERNEL_COUNTER_METRICS = ("pc.l2_misses", "pc.l2_remote_hits", "pc.flops")


def metrics_from_trace(spans: Iterable[Span]) -> dict[str, float]:
    """Flatten a (preferably enriched) trace into the record vocabulary.

    * ``run.wall_seconds`` / ``run.tasks`` — the root span's totals;
    * ``stage.<name>.seconds`` / ``stage.<name>.calls`` — per-stage sums;
    * ``kernel.<name>.wall_seconds`` — per-kernel measured time;
    * ``kernel.<name>.predicted_seconds`` / ``.predicted_gflops`` /
      ``.pc.*`` — model predictions where the observatory attached them
      (:func:`repro.obs.perf.enrich_spans`);
    * ``kernel.<name>.model_ratio`` — measured over predicted seconds;
    * ``counter.<name>`` — run counters (``ctr.`` span metrics) summed
      across all spans; the sparse stage-1/2 counters (``stage12_nnz``,
      ``stage12_tiles_pruned``, ...) reach drift detection this way.
    """
    metrics: dict[str, float] = {}
    span_list = list(spans)
    for root in build_tree(span_list):
        if root.span.kind != "run":
            continue
        metrics["run.wall_seconds"] = metrics.get(
            "run.wall_seconds", 0.0
        ) + root.span.metrics.get("wall_seconds", root.span.duration)
    metrics["run.tasks"] = float(
        sum(1 for s in span_list if s.kind == "task")
    )

    def _bump(key: str, value: float) -> None:
        metrics[key] = metrics.get(key, 0.0) + value

    for span in span_list:
        for metric_name, value in span.metrics.items():
            if metric_name.startswith("ctr."):
                _bump(f"counter.{metric_name[4:]}", value)
        if span.kind == "stage":
            _bump(
                f"stage.{span.name}.seconds",
                span.metrics.get("wall_seconds", span.duration),
            )
            _bump(f"stage.{span.name}.calls", span.metrics.get("calls", 1.0))
        elif span.kind == "kernel":
            prefix = f"kernel.{span.name}"
            _bump(
                f"{prefix}.wall_seconds",
                span.metrics.get("wall_seconds", span.duration),
            )
            if "predicted_seconds" in span.metrics:
                _bump(
                    f"{prefix}.predicted_seconds",
                    span.metrics["predicted_seconds"],
                )
                for counter in _KERNEL_COUNTER_METRICS:
                    if counter in span.metrics:
                        _bump(f"{prefix}.{counter}", span.metrics[counter])

    # Derived: model fidelity per enriched kernel + predicted GFLOPS at
    # the *aggregate* level (per-span GFLOPS don't sum).
    for key in [k for k in metrics if k.endswith(".predicted_seconds")]:
        prefix = key[: -len(".predicted_seconds")]
        predicted = metrics[key]
        measured = metrics.get(f"{prefix}.wall_seconds", 0.0)
        if predicted > 0 and measured > 0:
            metrics[f"{prefix}.model_ratio"] = measured / predicted
        flops = metrics.get(f"{prefix}.pc.flops", 0.0)
        if predicted > 0 and flops > 0:
            metrics[f"{prefix}.predicted_gflops"] = flops / predicted / 1e9
    return metrics


def record_from_trace(
    spans: Iterable[Span],
    name: str,
    *,
    config_hash: str = "",
    attrs: Mapping[str, Any] | None = None,
) -> BenchmarkRecord:
    """Build a history record summarizing one traced run."""
    span_list = list(spans)
    resolved_attrs: dict[str, Any] = {}
    for root in build_tree(span_list):
        node: "SpanNode" = root
        if node.span.kind == "run":
            for key in ("executor", "variant", "dataset", "n_voxels"):
                value = node.span.attrs.get(key)
                if value is not None:
                    resolved_attrs[key] = value
            break
    if attrs:
        resolved_attrs.update(dict(attrs))
    return BenchmarkRecord(
        name=name,
        metrics=metrics_from_trace(span_list),
        config_hash=config_hash,
        attrs=resolved_attrs,
    )


# -- legacy BENCH_*.json ingestion ----------------------------------------


def ingest_legacy_bench(
    path: str | Path, name: str | None = None
) -> BenchmarkRecord:
    """Convert a legacy root-level ``BENCH_*.json`` blob into a record.

    Numeric fields become metrics; everything else (benchmark title,
    preset description) lands in ``attrs`` together with the source
    path.  The record name defaults to the file stem lower-cased
    (``BENCH_stage3.json`` -> ``bench_stage3``).
    """
    path = Path(path)
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    metrics: dict[str, float] = {}
    attrs: dict[str, Any] = {"legacy_source": path.name}
    for key, value in payload.items():
        if isinstance(value, bool):
            attrs[key] = value
        elif isinstance(value, (int, float)):
            metrics[key] = float(value)
        else:
            attrs[key] = value
    return BenchmarkRecord(
        name=name or path.stem.lower(),
        metrics=metrics,
        attrs=attrs,
    )

"""The benchmark history registry: records, store, trace flattening."""

from __future__ import annotations

import json

import pytest

from repro.obs.perf import (
    RECORD_SCHEMA,
    BenchmarkRecord,
    HistoryRegistry,
    config_fingerprint,
    default_history_path,
    ingest_legacy_bench,
    machine_fingerprint,
    metrics_from_trace,
    record_from_trace,
)
from repro.obs.span import Span


def _trace():
    """A hand-built enriched run: run > task > stage > 2 kernel spans."""
    return [
        Span(
            span_id=0, name="fcma", kind="run", t0=0.0, t1=10.0,
            metrics={"wall_seconds": 10.0, "calls": 1.0},
            attrs={
                "executor": "serial", "variant": "optimized-batched",
                "dataset": "tiny", "n_voxels": 60,
            },
        ),
        Span(
            span_id=1, name="task0", kind="task", t0=0.0, t1=9.0,
            parent_id=0, metrics={"wall_seconds": 9.0},
            attrs={"n_voxels": 60},
        ),
        Span(
            span_id=2, name="stage1_correlation", kind="stage", t0=0.0,
            t1=4.0, parent_id=1,
            metrics={"wall_seconds": 4.0, "calls": 1.0},
        ),
        Span(
            span_id=3, name="correlate_normalize_batched", kind="kernel",
            t0=0.0, t1=4.0, parent_id=2,
            metrics={
                "wall_seconds": 4.0,
                "predicted_seconds": 2.0,
                "pc.flops": 8e9,
                "pc.l2_misses": 1e6,
            },
        ),
        Span(
            span_id=4, name="score_batch", kind="kernel", t0=4.0, t1=4.5,
            parent_id=2, metrics={"wall_seconds": 0.5},
        ),
    ]


class TestBenchmarkRecord:
    def test_round_trip(self):
        record = BenchmarkRecord(
            name="s", metrics={"a": 1}, config_hash="abc",
            attrs={"preset": "tiny"},
        )
        payload = record.to_dict()
        assert payload["type"] == "record"
        assert payload["schema"] == RECORD_SCHEMA
        clone = BenchmarkRecord.from_dict(payload)
        assert clone == record

    def test_metrics_coerced_to_float(self):
        record = BenchmarkRecord(name="s", metrics={"a": 3})
        assert record.metrics == {"a": 3.0}
        assert isinstance(record.metrics["a"], float)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkRecord(name="")

    def test_machine_id_tracks_fingerprint(self):
        a = BenchmarkRecord(name="s", machine={"node": "a"})
        b = BenchmarkRecord(name="s", machine={"node": "b"})
        assert len(a.machine_id) == 12
        assert a.machine_id != b.machine_id
        assert a.machine_id == BenchmarkRecord(
            name="t", machine={"node": "a"}
        ).machine_id

    def test_default_machine_is_this_host(self):
        assert BenchmarkRecord(name="s").machine == machine_fingerprint()


class TestHistoryRegistry:
    def test_append_creates_store_and_parents(self, tmp_path):
        path = tmp_path / "deep" / "history.jsonl"
        registry = HistoryRegistry(path)
        assert registry.append(BenchmarkRecord(name="s")) == path
        assert path.exists()
        assert len(registry.load()) == 1

    def test_append_order_preserved(self, tmp_path):
        registry = HistoryRegistry(tmp_path / "h.jsonl")
        for i in range(3):
            registry.append(BenchmarkRecord(name="s", metrics={"i": i}))
        assert [r.metrics["i"] for r in registry.load()] == [0.0, 1.0, 2.0]
        assert registry.latest("s").metrics["i"] == 2.0

    def test_load_tolerates_foreign_and_broken_lines(self, tmp_path):
        path = tmp_path / "h.jsonl"
        registry = HistoryRegistry(path)
        registry.append(BenchmarkRecord(name="s"))
        with open(path, "a") as fh:
            fh.write("not json at all\n")
            fh.write(json.dumps({"type": "meta", "schema": "x"}) + "\n")
            fh.write(json.dumps({"type": "record"}) + "\n")  # no name
            fh.write("\n")
        registry.append(BenchmarkRecord(name="t"))
        assert [r.name for r in registry.load()] == ["s", "t"]

    def test_records_filters_by_series(self, tmp_path):
        registry = HistoryRegistry(tmp_path / "h.jsonl")
        for name in ("a", "b", "a"):
            registry.append(BenchmarkRecord(name=name))
        assert len(registry.records("a")) == 2
        assert registry.names() == ["a", "b"]
        assert registry.latest("missing") is None

    def test_missing_store_is_empty(self, tmp_path):
        assert HistoryRegistry(tmp_path / "nope.jsonl").load() == []

    def test_env_var_overrides_default_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FCMA_HISTORY_PATH", str(tmp_path / "env.jsonl"))
        assert default_history_path() == tmp_path / "env.jsonl"
        assert HistoryRegistry().path == tmp_path / "env.jsonl"
        monkeypatch.delenv("FCMA_HISTORY_PATH")
        assert default_history_path().name == "history.jsonl"


class TestConfigFingerprint:
    def test_stable_and_order_independent(self):
        assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint(
            {"b": 2, "a": 1}
        )

    def test_distinguishes_configs(self):
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})

    def test_dataclasses_hash_by_fields(self):
        from repro.core import FCMAConfig

        assert config_fingerprint(FCMAConfig()) == config_fingerprint(
            FCMAConfig()
        )
        assert config_fingerprint(FCMAConfig()) != config_fingerprint(
            FCMAConfig(task_voxels=40)
        )

    def test_a_defaulted_field_nobody_set_does_not_move_the_hash(self):
        """Adding or deleting a knob left at its default must not orphan
        a history series: only configured (non-default) values hash."""
        from dataclasses import dataclass, field

        @dataclass(frozen=True)
        class Before:
            task_voxels: int = 120
            tags: tuple[str, ...] = field(default_factory=tuple)

        @dataclass(frozen=True)
        class After:
            task_voxels: int = 120
            tags: tuple[str, ...] = field(default_factory=tuple)
            new_knob: bool = False

        assert config_fingerprint(Before()) == config_fingerprint(After())
        assert config_fingerprint(Before(task_voxels=40)) == config_fingerprint(
            After(task_voxels=40)
        )
        assert config_fingerprint(After()) != config_fingerprint(
            After(new_knob=True)
        )
        assert config_fingerprint(Before()) != config_fingerprint(
            Before(tags=("x",))
        )


class TestMetricsFromTrace:
    def test_vocabulary(self):
        metrics = metrics_from_trace(_trace())
        assert metrics["run.wall_seconds"] == pytest.approx(10.0)
        assert metrics["run.tasks"] == 1.0
        assert metrics["stage.stage1_correlation.seconds"] == pytest.approx(
            4.0
        )
        assert metrics["stage.stage1_correlation.calls"] == 1.0
        prefix = "kernel.correlate_normalize_batched"
        assert metrics[f"{prefix}.wall_seconds"] == pytest.approx(4.0)
        assert metrics[f"{prefix}.predicted_seconds"] == pytest.approx(2.0)
        assert metrics[f"{prefix}.pc.flops"] == pytest.approx(8e9)
        assert metrics[f"{prefix}.pc.l2_misses"] == pytest.approx(1e6)
        # Derived: measured/predicted and flops at the predicted time.
        assert metrics[f"{prefix}.model_ratio"] == pytest.approx(2.0)
        assert metrics[f"{prefix}.predicted_gflops"] == pytest.approx(4.0)

    def test_unenriched_kernel_gets_wall_time_only(self):
        metrics = metrics_from_trace(_trace())
        assert metrics["kernel.score_batch.wall_seconds"] == pytest.approx(
            0.5
        )
        assert "kernel.score_batch.predicted_seconds" not in metrics
        assert "kernel.score_batch.model_ratio" not in metrics


class TestRecordFromTrace:
    def test_run_attrs_flow_into_record(self):
        record = record_from_trace(
            _trace(), "run-series", config_hash="cfg",
            attrs={"machine_model": "xeon"},
        )
        assert record.name == "run-series"
        assert record.config_hash == "cfg"
        assert record.attrs["executor"] == "serial"
        assert record.attrs["variant"] == "optimized-batched"
        assert record.attrs["dataset"] == "tiny"
        assert record.attrs["n_voxels"] == 60
        assert record.attrs["machine_model"] == "xeon"
        assert record.metrics["run.tasks"] == 1.0


class TestIngestLegacyBench:
    def test_splits_metrics_and_attrs(self, tmp_path):
        blob = {
            "benchmark": "batched stage 3 vs per-voxel reference",
            "speedup": 5.5,
            "batch_voxels": 64,
            "floor": 3.0,
            "interleaved": True,
        }
        path = tmp_path / "BENCH_stage3.json"
        path.write_text(json.dumps(blob))
        record = ingest_legacy_bench(path)
        assert record.name == "bench_stage3"
        assert record.metrics == {
            "speedup": 5.5, "batch_voxels": 64.0, "floor": 3.0
        }
        assert record.attrs["legacy_source"] == "BENCH_stage3.json"
        assert record.attrs["benchmark"].startswith("batched stage 3")
        assert record.attrs["interleaved"] is True

    def test_explicit_name_wins(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"a": 1}))
        assert ingest_legacy_bench(path, "custom").name == "custom"

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            ingest_legacy_bench(path)

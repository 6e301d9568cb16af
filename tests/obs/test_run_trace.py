"""End-to-end trace regression harness: real runs, real spans.

These tests pin the observable contract of a traced run: the span tree
is hierarchical (run -> task -> stage -> kernel), its per-stage totals
are exactly the timings ``RunContext`` reports, the CLI's ``--trace``
output matches the golden schema, and the whole layer costs a bounded
number of microseconds per span it records.
"""

from __future__ import annotations

import io
import json
import statistics
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import FCMAConfig
from repro.core.correlation import windows_body
from repro.core.normalization import normalizer_body
from repro.data import save_dataset
from repro.exec import RunContext, make_executor
from repro.obs import SCHEMA, Tracer, build_tree, read_jsonl
from repro import native

GOLDEN = Path(__file__).parent / "golden" / "run_report_schema.json"


@pytest.fixture(scope="module")
def batched_config() -> FCMAConfig:
    return FCMAConfig(
        variant="optimized-batched",
        task_voxels=40,
        target_block=32,
    )


@pytest.fixture(scope="module")
def traced_ctx(tiny_dataset, batched_config) -> RunContext:
    ctx = RunContext(batched_config)
    make_executor("serial").run(tiny_dataset, ctx)
    return ctx


class TestTraceShape:
    def test_single_hierarchical_tree(self, traced_ctx):
        roots = build_tree(traced_ctx.tracer.spans())
        assert len(roots) == 1
        run = roots[0]
        assert run.span.kind == "run"
        assert run.span.attrs["executor"] == "serial"
        tasks = [c for c in run.children if c.span.kind == "task"]
        assert len(tasks) == len(traced_ctx.task_seconds)
        for task in tasks:
            stage_names = [
                c.span.name for c in task.children if c.span.kind == "stage"
            ]
            assert stage_names == [
                "preprocess", "correlate+normalize", "score",
            ]

    def test_kernels_nest_under_stages(self, traced_ctx):
        roots = build_tree(traced_ctx.tracer.spans())
        kernel_names = {
            node.span.name
            for node in roots[0].walk()
            if node.span.kind == "kernel"
        }
        assert {
            "correlate_normalize_batched",
            "score_voxels",
            "score_batch",
            "smo.solve_batch",
        } <= kernel_names

    def test_every_span_closed_and_within_parent(self, traced_ctx):
        spans = traced_ctx.tracer.spans()
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            assert span.closed
            if span.parent_id is not None:
                parent = by_id[span.parent_id]
                assert parent.t0 <= span.t0
                assert span.t1 <= parent.t1

    def test_solver_iterations_counted(self, traced_ctx):
        agg = traced_ctx.tracer.aggregate(kind="kernel")
        assert agg["smo.solve_batch"]["iterations"] > 0
        assert agg["correlate_normalize_batched"]["bytes_moved"] > 0
        # Each solve names the body that ran it.
        body = "numpy" if native.solver() is None else "native"
        solves = [
            s for s in traced_ctx.tracer.spans() if s.name == "smo.solve_batch"
        ]
        assert solves and {s.attrs["body"] for s in solves} == {body}

    def test_walk_names_its_normalizer(self, traced_ctx, tiny_dataset):
        """Both walk spans, dense and sparse, say which fused normalizer
        body ran."""
        sparse = RunContext(
            FCMAConfig(variant="sparse-batched", task_voxels=40, top_k=6)
        )
        make_executor("serial").run(tiny_dataset, sparse)
        for ctx, name in (
            (traced_ctx, "correlate_normalize_batched"),
            (sparse, "correlate_normalize_sparse"),
        ):
            walks = [s for s in ctx.tracer.spans() if s.name == name]
            assert walks and {s.attrs["body"] for s in walks} == {normalizer_body()}


    def test_preprocess_names_its_body(self, traced_ctx, tiny_dataset):
        """Every ``preprocess`` span says which equation-2 body made the
        windows."""
        spans = [s for s in traced_ctx.tracer.spans() if s.name == "preprocess"]
        assert len(spans) == len(traced_ctx.task_seconds)
        body = windows_body(tiny_dataset.epoch_length)
        assert {s.attrs["body"] for s in spans} == {body}

    @pytest.mark.parametrize("fleet", ["thread", "tcp", "tcp-joined"])
    def test_whoever_makes_the_windows_records_preprocess(
        self, tiny_dataset, join_tcp_workers, fleet
    ):
        """A tiled run's windows are made under the serial graph's
        ``preprocess`` stage span, once per maker, under the run, with
        its ``body``: by rank 0 for thread ranks and ranks it spawned
        (they map rank 0's windows), and by each rank that joined, whose
        span comes home in its report."""
        if fleet == "tcp-joined":
            kwargs = {"transport": "tcp", "port": join_tcp_workers(2), "spawn": False}
        else:
            kwargs = {"transport": fleet}
        ctx = RunContext(FCMAConfig(task_voxels=40, comm_timeout=30))
        make_executor(
            "master-worker", n_workers=2, partition="tiles", **kwargs
        ).run(tiny_dataset, ctx)
        spans = ctx.tracer.spans()
        (run,) = [s for s in spans if s.kind == "run"]
        preprocess = [s for s in spans if s.name == "preprocess"]
        assert len(preprocess) == (2 if fleet == "tcp-joined" else 1)
        for span in preprocess:
            assert span.kind == "stage" and span.parent_id == run.span_id
            assert span.attrs["body"] == windows_body(tiny_dataset.epoch_length)
        assert "preprocess" in ctx.timing_report()["stages"]


class TestTraceMatchesRunContext:
    def test_per_stage_totals_match_timing_report(self, traced_ctx):
        report = traced_ctx.timing_report()
        totals: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span in traced_ctx.tracer.spans():
            if span.kind != "stage":
                continue
            totals[span.name] = totals.get(span.name, 0.0) + span.metrics[
                "wall_seconds"
            ]
            calls[span.name] = calls.get(span.name, 0) + int(
                span.metrics["calls"]
            )
        assert set(totals) == set(report["stages"])
        for name, stats in report["stages"].items():
            assert stats["seconds"] == pytest.approx(totals[name], abs=0.0)
            assert stats["calls"] == calls[name]

    def test_task_seconds_are_task_span_durations(self, traced_ctx):
        task_spans = [
            s for s in traced_ctx.tracer.spans() if s.kind == "task"
        ]
        assert traced_ctx.task_seconds == [
            s.metrics["wall_seconds"] for s in task_spans
        ]

    def test_counters_mirror_span_metrics(self, traced_ctx):
        tiles_in_trace = sum(
            s.metrics.get("ctr.stage12_tiles", 0.0)
            for s in traced_ctx.tracer.spans()
        )
        assert traced_ctx.counter("stage12_tiles") == tiles_in_trace > 0

    def test_stage_time_nests_inside_tasks(self, traced_ctx):
        spans = traced_ctx.tracer.spans()
        by_id = {s.span_id: s for s in spans}
        per_task: dict[int, float] = {}
        for span in spans:
            if span.kind == "stage" and span.parent_id is not None:
                parent = by_id[span.parent_id]
                if parent.kind == "task":
                    per_task[parent.span_id] = (
                        per_task.get(parent.span_id, 0.0) + span.duration
                    )
        assert per_task
        for task_id, stage_total in per_task.items():
            assert stage_total <= by_id[task_id].duration + 1e-9


class TestCliTraceGolden:
    @pytest.fixture(scope="class")
    def dataset_path(self, tiny_dataset, tmp_path_factory) -> str:
        path = tmp_path_factory.mktemp("ds") / "tiny.npz"
        save_dataset(tiny_dataset, path)
        return str(path)

    @pytest.fixture(scope="class")
    def run_output(self, dataset_path, tmp_path_factory):
        trace_path = tmp_path_factory.mktemp("trace") / "out.jsonl"
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main([
                "run", dataset_path,
                "--variant", "optimized-batched",
                "--task-voxels", "40",
                "--json",
                "--trace", str(trace_path),
            ])
        assert code == 0
        return json.loads(buf.getvalue()), trace_path

    def test_report_matches_golden_schema(self, run_output):
        report, _ = run_output
        golden = json.loads(GOLDEN.read_text())
        assert sorted(report) == sorted(golden["report_keys"])
        assert sorted(report["trace"]) == sorted(golden["trace_keys"])
        assert list(report["stages"]) == golden["stage_names"]
        for stats in report["stages"].values():
            assert sorted(stats) == sorted(golden["stage_keys"])

    def test_trace_file_matches_golden_schema(self, run_output):
        report, trace_path = run_output
        golden = json.loads(GOLDEN.read_text())
        lines = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
            if line.strip()
        ]
        meta, records = lines[0], lines[1:]
        assert sorted(meta) == sorted(golden["meta_keys"])
        assert meta["schema"] == golden["schema"] == SCHEMA
        assert meta["n_spans"] == len(records) == report["trace"]["n_spans"]
        for record in records:
            assert sorted(record) == sorted(golden["span_record_keys"])
            assert record["kind"] in golden["span_kinds"]

    def test_trace_totals_match_json_report(self, run_output):
        report, trace_path = run_output
        spans = read_jsonl(trace_path)
        totals: dict[str, float] = {}
        for span in spans:
            if span.kind == "stage":
                totals[span.name] = (
                    totals.get(span.name, 0.0)
                    + span.metrics["wall_seconds"]
                )
        for name, stats in report["stages"].items():
            assert stats["seconds"] == pytest.approx(totals[name], abs=0.0)
        assert report["n_spans"] == len(spans)


#: Allowed cost of one recorded span, microseconds — the live plane's
#: per-event bound (``tests/obs/live/test_overhead.py``).  The 5 % gate
#: this replaces allowed 0.05 x 0.21 s over this run's 18 spans, about
#: 590 us each: a share of wall tightens with every perf PR, a cost per
#: span does not.
MAX_US_PER_SPAN = 400.0


class TestOverhead:
    def test_tracing_costs_under_five_percent(
        self, tiny_dataset, batched_config
    ):
        """Traced vs disabled-tracer wall time on the same run, per span
        recorded.  (The name predates the per-span unit; the id is kept.)

        Single-run wall times jitter by milliseconds on a loaded box, so
        no min-of-N comparison of independent samples resolves the cost.
        Pairing does: each traced run is compared against the baseline
        run adjacent to it in time, so load drift cancels within the
        pair, and the *median* paired difference is immune to the
        occasional scheduler spike that skews means and mins.
        """
        spans: list[int] = []

        def run_once(enabled: bool) -> float:
            ctx = RunContext(
                batched_config, tracer=Tracer(enabled=enabled)
            )
            t0 = time.perf_counter()
            make_executor("serial").run(tiny_dataset, ctx)
            wall = time.perf_counter() - t0
            if enabled:
                spans.append(len(ctx.tracer))
            return wall

        def measure() -> float:
            """Median paired difference per recorded span, microseconds."""
            spans.clear()
            pairs = [(run_once(False), run_once(True)) for _ in range(15)]
            overhead = statistics.median(t - b for b, t in pairs)
            return overhead * 1e6 / statistics.median(spans)

        run_once(True)  # warm caches (BLAS threads, preprocessing)
        # A loaded box can blow any single measurement; re-measure before
        # failing so only a *persistent* overhead trips the gate.
        for _ in range(3):
            cost = measure()
            if cost <= MAX_US_PER_SPAN:
                break
        assert cost <= MAX_US_PER_SPAN, (
            f"tracing costs {cost:.0f} us per span, over "
            f"{MAX_US_PER_SPAN:.0f} us (median paired difference over "
            f"{statistics.median(spans):.0f} spans)"
        )

    def test_span_cost_is_microseconds(self):
        """A raw open/close pair must stay in the microsecond range, so
        per-kernel spans are safe even on millisecond kernels.

        The cost is the *minimum* over 5 batches of 400 pairs: a
        scheduler stall on a shared 2-vCPU box inflates a batch's mean,
        never the minimum over batches.
        """
        tracer = Tracer()
        batches, per_batch = 5, 400
        n = batches * per_batch
        costs = []
        for _ in range(batches):
            t0 = time.perf_counter()
            for _ in range(per_batch):
                with tracer.span("k", kind="kernel"):
                    pass
            costs.append((time.perf_counter() - t0) / per_batch)
        assert min(costs) < 5e-5
        assert len(tracer) == n

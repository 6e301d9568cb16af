"""Executors: one task stream, two executors, identical results.

The cross-executor equivalence test is the contract the whole exec
subsystem hangs on: serial and master-worker runs (thread or TCP ranks)
of the same dataset + config must produce *bitwise-identical*
VoxelScores.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FCMAConfig
from repro.exec.context import RunContext
from repro.obs import TIMING_METRICS, assert_same_structure, span_structure
from repro.exec.executors import (
    EXECUTOR_NAMES,
    Executor,
    MasterWorkerExecutor,
    SerialExecutor,
    make_executor,
)


def _make(name: str) -> Executor:
    return make_executor(name, n_workers=2)


class TestCrossExecutorEquivalence:
    @pytest.mark.parametrize("name", ["master-worker"])
    @pytest.mark.parametrize(
        "variant", ["baseline", "optimized", "optimized-batched"]
    )
    def test_bitwise_identical_to_serial(
        self, tiny_dataset, name, variant
    ):
        config = FCMAConfig(
            variant=variant, task_voxels=16, target_block=32
        )
        reference = SerialExecutor().run(
            tiny_dataset, RunContext(config, seed=0)
        )
        scores = _make(name).run(tiny_dataset, RunContext(config, seed=0))
        np.testing.assert_array_equal(reference.voxels, scores.voxels)
        np.testing.assert_array_equal(reference.accuracies, scores.accuracies)

    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_voxel_subset_equivalence(self, tiny_dataset, fast_fcma_config, name):
        voxels = np.array([3, 1, 40, 17, 5, 22, 8], dtype=np.int64)
        config = FCMAConfig(task_voxels=3, target_block=32)
        reference = SerialExecutor().run(
            tiny_dataset, RunContext(config), voxels=voxels
        )
        scores = _make(name).run(tiny_dataset, RunContext(config), voxels=voxels)
        np.testing.assert_array_equal(reference.voxels, scores.voxels)
        np.testing.assert_array_equal(reference.accuracies, scores.accuracies)
        assert set(scores.voxels) == set(voxels.tolist())


class TestTraceEquivalence:
    """Executors must record the *same dataflow*, not just the same
    scores: identical span trees modulo timing and thread ids.  No
    per-process state reaches the trace, so only wall-clock metrics are
    ignored."""

    IGNORED_METRICS = frozenset(TIMING_METRICS)

    @staticmethod
    def _run(name: str, dataset, config):
        ctx = RunContext(config, seed=0)
        executor = (
            SerialExecutor() if name == "serial" else _make(name)
        )
        executor.run(dataset, ctx)
        return ctx

    @staticmethod
    def _task_forest(ctx):
        """The per-task spans only: drops the run root
        (executor-specific attrs), the coordinator's ``event`` spans
        (its plan and the messages it received) and each worker rank's
        two ``comm.bytes_*`` counter spans (its end of the wire, not
        dataflow) and its start's ``preprocess`` span (outside every
        task, directly under the run)."""
        spans = ctx.tracer.spans()
        runs = {s.span_id for s in spans if s.kind == "run"}
        return [
            s
            for s in spans
            if s.kind not in ("run", "event")
            and not s.name.startswith("comm.bytes_")
            and not (s.name == "preprocess" and s.parent_id in runs)
        ]

    @pytest.mark.parametrize("name", ["master-worker"])
    @pytest.mark.parametrize("variant", ["optimized", "optimized-batched"])
    def test_task_spans_match_serial(self, tiny_dataset, name, variant):
        config = FCMAConfig(
            variant=variant, task_voxels=16, target_block=32
        )
        reference = self._run("serial", tiny_dataset, config)
        ctx = self._run(name, tiny_dataset, config)
        assert_same_structure(
            self._task_forest(reference),
            self._task_forest(ctx),
            ignore_metrics=self.IGNORED_METRICS,
        )

    def test_different_dataflow_is_detected(self, tiny_dataset):
        """``optimized`` and ``optimized-batched`` are one pipeline —
        same span tree — and the comparison is not vacuous: ``baseline``
        records another dataflow."""
        configs = {
            variant: FCMAConfig(variant=variant, task_voxels=16, target_block=32)
            for variant in ("optimized", "optimized-batched", "baseline")
        }
        forests = {
            variant: self._task_forest(self._run("serial", tiny_dataset, config))
            for variant, config in configs.items()
        }
        assert_same_structure(
            forests["optimized"],
            forests["optimized-batched"],
            ignore_metrics=self.IGNORED_METRICS,
        )
        with pytest.raises(AssertionError):
            assert_same_structure(
                forests["optimized"],
                forests["baseline"],
                ignore_metrics=self.IGNORED_METRICS,
            )


class TestTelemetry:
    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_every_executor_fills_the_context(
        self, tiny_dataset, fast_fcma_config, name
    ):
        ctx = RunContext(fast_fcma_config)
        _make(name).run(tiny_dataset, ctx)
        # Same stage vocabulary no matter which backend ran the work.
        assert set(ctx.stages) == {"preprocess", "correlate+normalize", "score"}
        assert all(s.seconds >= 0 for s in ctx.stages.values())
        expected_tasks = -(-tiny_dataset.n_voxels // fast_fcma_config.task_voxels)
        assert len(ctx.task_seconds) == expected_tasks
        assert ctx.metadata["n_tasks"] == expected_tasks
        assert ctx.metadata["measured_elapsed_s"] > 0

    def test_serial_metadata_names_itself(self, tiny_dataset, fast_fcma_config):
        ctx = RunContext(fast_fcma_config)
        SerialExecutor().run(tiny_dataset, ctx)
        assert ctx.metadata["executor"] == "serial"

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("master-worker", {}),
            ("master-worker", {"transport": "tcp"}),
        ],
        ids=["mw-thread", "mw-tcp"],
    )
    def test_worker_counters_reach_the_run_total(
        self, tiny_dataset, name, kwargs
    ):
        """Counters are span metrics and nothing else: what a worker
        context counted arrives with its spans, and the run total is
        their sum — equal to the serial run's on every transport."""
        config = FCMAConfig(task_voxels=16, target_block=32)
        reference = RunContext(config)
        SerialExecutor().run(tiny_dataset, reference)
        ctx = RunContext(config)
        make_executor(name, n_workers=2, **kwargs).run(tiny_dataset, ctx)
        totals = ctx.counters()
        assert ctx.metadata["counters"] == totals
        for key in ("stage12_tiles", "emitter_dense_tiles", "emitter_dense_runs"):
            assert totals[key] == reference.counters()[key] > 0
        assert totals["comm.bytes_sent"] > 0 and totals["comm.bytes_recv"] > 0

    @pytest.mark.parametrize("transport", ["thread", "tcp"])
    def test_every_rank_reports_its_peak_memory(self, tiny_dataset, transport):
        """A forked TCP rank is the fork server's child, so the master's
        ``RUSAGE_CHILDREN`` never sees it: its report says what it used."""
        ctx = RunContext(FCMAConfig(task_voxels=20, target_block=32))
        MasterWorkerExecutor(
            n_workers=2, transport=transport, partition="tiles"
        ).run(tiny_dataset, ctx)
        peaks = ctx.metadata["worker_peak_rss_mb"]
        assert set(peaks) == {1, 2}
        assert all(mb > 0 for mb in peaks.values())


class TestOneFleet:
    """Thread ranks and TCP ranks boot, serve and report by the same
    code, so the same plan leaves the same trace on either transport
    and ``comm.bytes_*`` means one thing: every rank's end, summed.
    What a fleet is given differs only by where its ranks live: ranks
    of this process or spawned on this host work from rank 0's windows;
    ranks that joined are sent the dataset and make their own."""

    @staticmethod
    def _preprocess_spans(ctx):
        """The ``preprocess`` stage spans directly under the run — the
        windows' making, outside every task."""
        spans = ctx.tracer.spans()
        (run,) = [s for s in spans if s.kind == "run"]
        return [
            s for s in spans if s.name == "preprocess" and s.parent_id == run.span_id
        ]

    @staticmethod
    def _run(dataset, config, partition, **kwargs):
        ctx = RunContext(config)
        scores = MasterWorkerExecutor(
            n_workers=2, partition=partition, **kwargs
        ).run(dataset, ctx)
        return scores, ctx

    @pytest.mark.parametrize("partition", ["rows", "tiles"])
    def test_transports_leave_the_same_trace_and_counters(
        self, tiny_dataset, small_gram_chunks, join_tcp_workers, partition
    ):
        config = FCMAConfig(task_voxels=40, target_block=32, comm_timeout=30)
        serial = SerialExecutor().run(tiny_dataset, RunContext(config))
        threads, thread_ctx = self._run(tiny_dataset, config, partition)
        tcp, tcp_ctx = self._run(
            tiny_dataset, config, partition,
            transport="tcp", port=join_tcp_workers(2), spawn=False,
        )
        for scores in (threads, tcp):
            np.testing.assert_array_equal(scores.voxels, serial.voxels)
            np.testing.assert_array_equal(scores.accuracies, serial.accuracies)
        # Which rank drew which item — and so how many waits it timed —
        # is scheduling, and who made the windows is the fleet's
        # (below); everything else in the two traces is the same
        # dataflow under the same names.
        waits = {"comm.fetch_wait", "overlap_hidden_seconds"}

        def dataflow(ctx):
            making = {s.span_id for s in self._preprocess_spans(ctx)}
            return [
                s
                for s in ctx.tracer.spans()
                if s.name not in waits and s.span_id not in making
            ]

        assert_same_structure(
            dataflow(thread_ctx),
            dataflow(tcp_ctx),
            ignore_metrics=frozenset(TIMING_METRICS)
            | {"ctr.comm.bytes_sent", "ctr.comm.bytes_recv"},
        )
        # Rank 0 made the thread ranks' windows; each joined rank its own.
        assert len(self._preprocess_spans(thread_ctx)) == 1
        assert len(self._preprocess_spans(tcp_ctx)) == 2
        thread_totals = thread_ctx.metadata["counters"]
        tcp_totals = tcp_ctx.metadata["counters"]
        assert set(thread_totals) == set(tcp_totals)
        # Threads share rank 0's windows by reference; joined ranks are
        # sent the dataset, once each.  Beyond it, the same bytes.
        broadcast = 2 * tiny_dataset.nbytes()
        for key in ("comm.bytes_sent", "comm.bytes_recv"):
            assert thread_totals[key] == pytest.approx(
                tcp_totals[key] - broadcast, rel=0.10
            ), key

    @pytest.mark.parametrize("partition", ["rows", "tiles"])
    def test_spawned_ranks_count_the_thread_ranks_bytes(
        self, tiny_dataset, partition
    ):
        """Ranks spawned on this host map rank 0's windows: no dataset
        crosses their sockets, so they count what thread ranks count."""
        config = FCMAConfig(task_voxels=40, target_block=32)
        serial = SerialExecutor().run(tiny_dataset, RunContext(config))
        threads, thread_ctx = self._run(tiny_dataset, config, partition)
        tcp, tcp_ctx = self._run(tiny_dataset, config, partition, transport="tcp")
        for scores in (threads, tcp):
            np.testing.assert_array_equal(scores.voxels, serial.voxels)
            np.testing.assert_array_equal(scores.accuracies, serial.accuracies)
        for ctx in (thread_ctx, tcp_ctx):
            assert len(self._preprocess_spans(ctx)) == 1
        thread_totals = thread_ctx.metadata["counters"]
        tcp_totals = tcp_ctx.metadata["counters"]
        for key in ("comm.bytes_sent", "comm.bytes_recv"):
            assert thread_totals[key] == pytest.approx(tcp_totals[key], rel=0.10), key

    @staticmethod
    def _live(executor, dataset, config) -> dict:
        """The final live snapshot of one run: a runtime folding the
        run's own trace, nothing else attached."""
        from repro.obs.live import LiveRuntime, build_snapshot

        ctx = RunContext(config)
        rt = LiveRuntime()
        rt.attach_tracer(ctx.tracer)
        executor.run(dataset, ctx)
        return build_snapshot(rt, seq=0, final=True, resource_sampler=lambda: None)

    @pytest.mark.parametrize("partition", ["rows", "tiles"])
    def test_one_plan_reads_the_same_live_counters_on_every_transport(
        self, tiny_dataset, partition
    ):
        config = FCMAConfig(task_voxels=20, target_block=32, comm_timeout=30)
        snaps = {
            transport: self._live(
                MasterWorkerExecutor(n_workers=2, partition=partition, **kwargs),
                tiny_dataset,
                config,
            )
            for transport, kwargs in (
                ("thread", {}),
                ("tcp", {"transport": "tcp"}),
            )
        }
        thread, tcp = snaps["thread"], snaps["tcp"]
        assert thread["counters"] == tcp["counters"]
        assert thread["progress"]["by_kind"] == tcp["progress"]["by_kind"]
        assert {k: h["count"] for k, h in thread["histograms"].items()} == {
            k: h["count"] for k, h in tcp["histograms"].items()
        }
        for snap in (thread, tcp):
            assert snap["progress"]["fraction"] == 1.0
            completed = sum(w["completed"] for w in snap["workers"].values())
            assert completed == snap["progress"]["total"] > 0

    @pytest.mark.parametrize("transport", ["thread", "tcp"])
    def test_rank_dying_outside_an_item_fails_the_run_by_name(
        self, tiny_dataset, join_tcp_workers, monkeypatch, transport
    ):
        """No transport loses a rank silently: the master hears of the
        death at once, not at ``comm_timeout``, and says what it was."""
        import time

        import repro.parallel.tiled as tiled

        def no_room():
            raise MemoryError("no room for the workspace")

        monkeypatch.setattr(tiled, "NormalizationWorkspace", no_room)
        kwargs = (
            {"transport": "tcp", "port": join_tcp_workers(2), "spawn": False}
            if transport == "tcp"
            else {}
        )
        ctx = RunContext(FCMAConfig(task_voxels=40, comm_timeout=30))
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="MemoryError: no room"):
            MasterWorkerExecutor(n_workers=2, **kwargs).run(tiny_dataset, ctx)
        assert time.monotonic() - started < 5.0


class TestProtocolAndFactory:
    def test_builtin_executors_satisfy_protocol(self):
        for name in EXECUTOR_NAMES:
            assert isinstance(_make(name), Executor)

    def test_factory_rejects_unknown_name(self):
        with pytest.raises(KeyError, match="serial"):
            make_executor("nope")

    def test_worker_count_validation(self):
        """One rule: ``None`` is the default (2 ranks), below 1 raises,
        whichever executor is named."""
        assert make_executor("master-worker").n_workers == 2
        assert make_executor("master-worker", n_workers=None).n_workers == 2
        for name in EXECUTOR_NAMES:
            for bad in (0, -3):
                with pytest.raises(ValueError, match=">= 1"):
                    make_executor(name, n_workers=bad)
        with pytest.raises(ValueError):
            MasterWorkerExecutor(n_workers=0)
        with pytest.raises(ValueError):
            MasterWorkerExecutor(max_retries=0)


class TestHostWorkerShare:
    """Executors tell the engine how many workers share the host; its
    thread budget is the affinity mask divided by that count."""

    def test_thread_ranks_split_the_host_for_the_run_only(
        self, tiny_dataset, fast_fcma_config, monkeypatch
    ):
        from repro.core import engine
        from repro.exec import executors as executors_mod
        from repro.parallel import tcp_worker as worker_mod

        calls: list[int] = []

        def record(n: int) -> int:
            calls.append(n)
            return engine.set_host_workers(n)

        # The executor declares and restores; every rank hears its share
        # in the broadcast, as a TCP rank would.
        monkeypatch.setattr(executors_mod, "set_host_workers", record)
        monkeypatch.setattr(worker_mod, "set_host_workers", record)
        before = (engine._host_workers, engine.thread_budget())
        MasterWorkerExecutor(n_workers=3).run(
            tiny_dataset, RunContext(fast_fcma_config)
        )
        assert calls == [3, 3, 3, 3, before[0]]  # restored after
        assert (engine._host_workers, engine.thread_budget()) == before


class TestSpawnedWorkersAreReaped:
    def test_hung_tcp_worker_is_killed_and_waited_for(
        self, tiny_dataset, monkeypatch
    ):
        """A spawned worker that outlives its grace is killed *and*
        reaped: ``kill()`` alone leaves a zombie child behind."""
        import subprocess
        import sys

        from repro.exec import executors as executors_mod

        hung: list[subprocess.Popen] = []

        class Impatient:
            """A Popen whose 10 s grace is 0.2 s."""

            def __init__(self, proc):
                self.proc = proc

            def wait(self, timeout=None):
                return self.proc.wait(None if timeout is None else 0.2)

            def kill(self):
                self.proc.kill()

        def spawn_hung(address, n_workers, timeout=None):
            hung.extend(
                subprocess.Popen(
                    [sys.executable, "-c", "import time; time.sleep(600)"]
                )
                for _ in range(n_workers)
            )
            return [Impatient(proc) for proc in hung]

        monkeypatch.setattr(executors_mod, "spawn_local_workers", spawn_hung)
        ctx = RunContext(FCMAConfig(task_voxels=16, comm_timeout=0.5))
        try:
            with pytest.raises(Exception):
                MasterWorkerExecutor(n_workers=2, transport="tcp").run(
                    tiny_dataset, ctx
                )
            assert len(hung) == 2
            # Reaped, not merely signalled: wait() set the return code.
            assert all(proc.returncode is not None for proc in hung)
        finally:
            for proc in hung:
                proc.kill()
                proc.wait()

"""LiveRuntime unit tests: counters, histograms, heartbeats, the fold.

Everything time-dependent runs on the deterministic fake clock so ages,
elapsed seconds, and staleness are asserted exactly; the concurrency
stress test at the bottom is the satellite thread-safety guarantee —
many threads hammering one runtime must lose no updates.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs import Tracer
from repro.obs.live import LiveRuntime
from repro.obs.live.runtime import DEFAULT_BUCKETS, LiveHistogram


class ManualClock:
    """A monotonic clock advanced explicitly by the test."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def clock() -> ManualClock:
    return ManualClock()


@pytest.fixture()
def rt(clock: ManualClock) -> LiveRuntime:
    return LiveRuntime(clock=clock, stale_after=30.0)


@pytest.fixture()
def traced(rt: LiveRuntime) -> Tracer:
    """A tracer whose spans ``rt`` folds."""
    tracer = Tracer()
    rt.attach_tracer(tracer)
    return tracer


def message(tracer: Tracer, name: str, worker: int, item: str | None = None):
    """One protocol event, as the master loop records it."""
    attrs: dict = {"worker": worker}
    if item is not None:
        attrs["item"] = item
    tracer.record(name, kind="event", attrs=attrs)


class TestCounters:
    def test_inc_accumulates(self, rt):
        rt.inc("tasks")
        rt.inc("tasks", 2.0)
        assert rt.counter("tasks") == 3.0

    def test_unknown_counter_reads_zero(self, rt):
        assert rt.counter("never") == 0.0

    def test_negative_delta_rejected(self, rt):
        with pytest.raises(ValueError, match="monotonic"):
            rt.inc("tasks", -1.0)

    def test_set_total_seeds_counter(self, rt):
        rt.set_total("tiles", 10.0)
        state = rt.snapshot_state()
        assert state["totals"]["tiles"] == 10.0
        assert state["counters"]["tiles"] == 0.0

    def test_set_total_does_not_reset_progress(self, rt):
        rt.inc("tiles", 4.0)
        rt.set_total("tiles", 10.0)
        assert rt.counter("tiles") == 4.0

    def test_negative_total_rejected(self, rt):
        with pytest.raises(ValueError):
            rt.set_total("tiles", -1.0)

    def test_gauges_move_both_directions(self, rt):
        rt.set_gauge("n_workers", 4.0)
        rt.set_gauge("n_workers", 2.0)
        assert rt.snapshot_state()["gauges"]["n_workers"] == 2.0

    def test_elapsed_follows_clock(self, rt, clock):
        clock.advance(7.5)
        assert rt.elapsed() == 7.5


class TestHistogram:
    def test_default_buckets_sorted_ladder(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-5)
        assert DEFAULT_BUCKETS[-1] == pytest.approx(500.0)

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            LiveHistogram(bounds=(2.0, 1.0))

    def test_observe_counts_and_sum(self):
        hist = LiveHistogram(bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 100.0):
            hist.observe(v)
        assert hist.counts == [1, 1, 1]  # one per bucket + overflow
        assert hist.count == 3
        assert hist.total == pytest.approx(105.5)
        assert hist.max == 100.0

    def test_quantile_clamped_to_observed_max(self):
        hist = LiveHistogram(bounds=(1.0, 10.0))
        hist.observe(0.25)
        # Bucket upper bound is 1.0, but nothing observed exceeded 0.25.
        assert hist.quantile(0.5) == 0.25

    def test_quantile_empty_is_zero(self):
        assert LiveHistogram().quantile(0.99) == 0.0

    def test_quantile_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            LiveHistogram().quantile(1.5)

    def test_state_buckets_cumulative_with_inf(self):
        hist = LiveHistogram(bounds=(1.0, 10.0))
        for v in (0.5, 0.6, 5.0):
            hist.observe(v)
        state = hist.state()
        assert state["buckets"] == [[1.0, 2], [10.0, 3], ["+Inf", 3]]
        assert state["count"] == 3
        assert state["p50"] <= state["p99"] <= state["max"]

    def test_runtime_observe_creates_histogram(self, rt):
        rt.observe("tile_seconds", 0.02)
        rt.observe("tile_seconds", 0.04)
        hists = rt.snapshot_state()["histograms"]
        assert hists["tile_seconds"]["count"] == 2


class TestHeartbeats:
    def test_heartbeat_records_age(self, rt, clock):
        rt.heartbeat(1)
        clock.advance(3.0)
        workers = rt.snapshot_state()["workers"]
        assert workers[1]["age_s"] == 3.0
        assert workers[1]["lost"] is False

    def test_heartbeat_carries_completions(self, rt):
        rt.heartbeat(1, completed=5)
        rt.heartbeat(1)  # traffic without a count keeps the last count
        assert rt.snapshot_state()["workers"][1]["completed"] == 5.0

    def test_worker_lost_then_heartbeat_revives(self, rt):
        rt.worker_lost(2)
        assert rt.snapshot_state()["workers"][2]["lost"] is True
        rt.heartbeat(2)
        assert rt.snapshot_state()["workers"][2]["lost"] is False

    def test_probe_age_overrides_message_age(self, rt, traced, clock):
        """A rank's age is the master's last-heard time: every message
        event from it refreshes the age, and a ``result`` adds one to
        its ``completed`` (the transport's socket probe is gone)."""
        message(traced, "request", 1)
        clock.advance(10.0)
        message(traced, "result", 1, "tile:0")
        message(traced, "request", 3)
        clock.advance(0.5)
        workers = rt.snapshot_state()["workers"]
        assert workers[1] == {"age_s": 0.5, "completed": 1.0, "lost": False}
        # A rank appears with its first message, before any result.
        assert workers[3] == {"age_s": 0.5, "completed": 0.0, "lost": False}
        assert rt.counter("tiles") == 1.0 and rt.counter("tasks") == 0.0

    def test_probe_cleared(self, rt, traced, clock):
        """``lost`` (a peer-loss message, or a report naming the error a
        rank died of) flags the rank without refreshing its age."""
        message(traced, "request", 1)
        clock.advance(4.0)
        message(traced, "lost", 1)
        worker = rt.snapshot_state()["workers"][1]
        assert worker["lost"] is True and worker["age_s"] == 4.0


class TestTracerDualWrite:
    def test_task_span_close_ticks_completion(self, rt):
        tracer = Tracer()
        rt.attach_tracer(tracer)
        with tracer.span("run", kind="run"):
            with tracer.span("t0", kind="task"):
                with tracer.span("k", kind="kernel"):
                    pass
        assert rt.counter("tasks") == 1.0
        assert rt.counter("spans_task") == 1.0
        assert rt.counter("spans_kernel") == 1.0
        hists = rt.snapshot_state()["histograms"]
        assert hists["task_seconds"]["count"] == 1

    def test_detach_stops_dual_write(self, rt):
        tracer = Tracer()
        rt.attach_tracer(tracer)
        rt.detach_tracer(tracer)
        with tracer.span("t0", kind="task"):
            pass
        assert rt.counter("tasks") == 0.0

    def test_merged_spans_do_not_notify(self, rt):
        """Foreign spans merged at the master must not double-count
        completions the protocol loop already ticked."""
        worker = Tracer()
        with worker.span("t0", kind="task"):
            pass
        master = Tracer()
        rt.attach_tracer(master)
        master.merge(worker.spans())
        assert rt.counter("tasks") == 0.0

    def test_disabled_tracer_does_not_notify(self, rt):
        tracer = Tracer(enabled=False)
        rt.attach_tracer(tracer)
        with tracer.span("t0", kind="task"):
            pass
        assert rt.counter("tasks") == 0.0


class TestActivation:
    """There is no process-global runtime: a runtime folds exactly the
    tracers it is attached to."""

    def test_activate_deactivate(self):
        a, b = LiveRuntime(), LiveRuntime()
        ta, tb = Tracer(), Tracer()
        a.attach_tracer(ta)
        b.attach_tracer(tb)
        ta.record("plan", kind="event", metrics={"tasks": 3.0},
                  attrs={"n_workers": 1})
        tb.record("plan", kind="event", metrics={"tasks": 5.0},
                  attrs={"n_workers": 2})
        with ta.span("t", kind="task"):
            pass
        assert a.snapshot_state()["totals"] == {"tasks": 3.0}
        assert b.snapshot_state()["totals"] == {"tasks": 5.0}
        assert (a.counter("tasks"), b.counter("tasks")) == (1.0, 0.0)

    def test_activated_restores_previous(self):
        """Runs on two threads at once, each on its own tracer, reach
        only their own runtime."""
        pairs = [(LiveRuntime(), Tracer()) for _ in range(2)]
        for rt, tracer in pairs:
            rt.attach_tracer(tracer)

        def run(tracer: Tracer, n_tasks: int) -> None:
            for _ in range(n_tasks):
                with tracer.span("t", kind="task"):
                    pass

        threads = [
            threading.Thread(target=run, args=(tracer, n))
            for (_, tracer), n in zip(pairs, (3, 7))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert [rt.counter("tasks") for rt, _ in pairs] == [3.0, 7.0]


class TestFold:
    """What each span the run writes adds to the plane (``FOLD``)."""

    def test_plan_declares_totals_and_workers(self, rt, traced):
        traced.record("plan", kind="event", metrics={"tasks": 4.0, "tiles": 6.0},
                      attrs={"n_workers": 2})
        state = rt.snapshot_state()
        assert state["totals"] == {"tasks": 4.0, "tiles": 6.0}
        assert state["counters"]["tasks"] == state["counters"]["tiles"] == 0.0
        assert state["gauges"] == {"n_workers": 2.0}

    def test_results_tick_their_item_kind(self, rt, traced):
        for item in ("tile:0", "tile:1", "score:0"):
            message(traced, "result", 1, item)
        traced.record("result", kind="event", attrs={"item": "task:0"})  # pool
        message(traced, "error", 2, "tile:3")
        assert rt.counter("tiles") == 2.0
        assert rt.counter("tasks") == 2.0
        assert rt.counter("task_errors") == 1.0
        workers = rt.snapshot_state()["workers"]
        assert workers[1]["completed"] == 3.0 and workers[2]["completed"] == 0.0

    def test_walk_tiles_and_stream_steps(self, rt, traced):
        with traced.span("correlate_normalize_batched", kind="kernel") as span:
            span.add_metric("tiles", 3.0)
        with traced.span("score_voxels", kind="kernel"):
            pass
        for seconds in (0.001, 0.002):
            traced.record("stream", kind="stage", seconds=seconds)
        state = rt.snapshot_state()
        assert state["counters"]["engine_tiles"] == 3.0
        assert state["counters"]["rtfmri_steps"] == 2.0
        steps = state["histograms"]["rtfmri_step_seconds"]
        assert steps["count"] == 2 and steps["sum"] == pytest.approx(0.003)
        assert "tile_seconds" not in state["histograms"]


class TestThreadSafety:
    def test_concurrent_updates_lose_nothing(self):
        """The satellite stress bound: 8 threads x 500 iterations of
        mixed counter/gauge/histogram/heartbeat traffic with concurrent
        snapshot reads must produce exact final aggregates."""
        rt = LiveRuntime()
        n_threads, n_iter = 8, 500
        barrier = threading.Barrier(n_threads)
        errors: list[BaseException] = []

        def worker(rank: int) -> None:
            try:
                barrier.wait()
                for i in range(n_iter):
                    rt.inc("tasks")
                    rt.inc("bytes", 3.0)
                    rt.observe("task_seconds", 0.001 * (i % 7))
                    rt.set_gauge(f"g{rank}", float(i))
                    rt.heartbeat(rank, completed=1)
                    if i % 100 == 0:
                        rt.snapshot_state()
            except BaseException as exc:  # pragma: no cover - fail path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(r,))
            for r in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert rt.counter("tasks") == n_threads * n_iter
        assert rt.counter("bytes") == 3.0 * n_threads * n_iter
        state = rt.snapshot_state()
        assert state["histograms"]["task_seconds"]["count"] == (
            n_threads * n_iter
        )
        assert len(state["workers"]) == n_threads
        for rank in range(n_threads):
            assert state["workers"][rank]["completed"] == n_iter

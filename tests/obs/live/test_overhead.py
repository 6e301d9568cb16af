"""The live plane's overhead bound: an absolute cost per event.

Same paired-median methodology as ``TestOverhead`` in
``tests/obs/test_run_trace.py``: adjacent-in-time pairs cancel load
drift, the median paired difference shrugs off scheduler spikes.  The
bound is microseconds per live event published, not a share of the
run's wall: the plane's cost does not shrink when the pipeline gets
faster, so a ratio gate tightens — and flakes — with every perf PR.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.core import FCMAConfig
from repro.exec import RunContext, make_executor
from repro.obs.live import LiveRuntime, RingSink, SnapshotPublisher


@pytest.fixture(scope="module")
def batched_config() -> FCMAConfig:
    # Three tasks: 26 spans feed the plane however fast the run is (at
    # two tasks the 18 spans needed a run slow enough for the 20 Hz
    # publisher to add the rest).
    return FCMAConfig(
        variant="optimized-batched",
        task_voxels=20,
        target_block=32,
    )


#: Allowed cost of one live event (a span folded in, or a snapshot built
#: and emitted).  The 5 % gate this replaces allowed 0.05 x 0.22 s =
#: 11 ms over ~26 events of this run, 423 us each; the unit changed, the
#: tolerance did not widen.
MAX_US_PER_EVENT = 400.0


class TestLiveOverhead:
    def test_live_plane_costs_under_five_percent(
        self, tiny_dataset, batched_config
    ):
        """Full plane on (the fold attached to the run's tracer + 20 Hz
        publisher into a ring) vs plane off, on the optimized-batched
        pipeline the tracer overhead gate also uses.  (The name predates
        the per-event unit; the id is kept for the test floor.)"""
        events: list[float] = []

        def run_once(live: bool) -> float:
            ctx = RunContext(batched_config)
            if not live:
                t0 = time.perf_counter()
                make_executor("serial").run(tiny_dataset, ctx)
                return time.perf_counter() - t0
            rt = LiveRuntime()
            rt.attach_tracer(ctx.tracer)
            ring = RingSink()
            publisher = SnapshotPublisher(rt, [ring], interval=0.05)
            publisher.start()
            try:
                t0 = time.perf_counter()
                make_executor("serial").run(tiny_dataset, ctx)
                wall = time.perf_counter() - t0
            finally:
                publisher.stop()
                rt.detach_tracer(ctx.tracer)
            # The plane's whole input and output: spans folded, snapshots.
            counters = rt.snapshot_state()["counters"]
            events.append(
                sum(v for k, v in counters.items() if k.startswith("spans_"))
                + len(ring.snapshots())
            )
            return wall

        def measure() -> float:
            """Median paired difference per live event, microseconds."""
            events.clear()
            pairs = [(run_once(False), run_once(True)) for _ in range(7)]
            overhead = statistics.median(t - b for b, t in pairs)
            return overhead * 1e6 / statistics.median(events)

        run_once(True)  # warm caches (BLAS threads, preprocessing)
        assert events[0] >= 20  # the plane really was fed
        # A loaded CI box can blow any single measurement; re-measure
        # before failing so only a *persistent* overhead trips the gate.
        for _ in range(3):
            cost = measure()
            if cost <= MAX_US_PER_EVENT:
                break
        assert cost <= MAX_US_PER_EVENT, (
            f"live plane costs {cost:.0f} us per event, over "
            f"{MAX_US_PER_EVENT:.0f} us (median paired difference over "
            f"{statistics.median(events):.0f} events)"
        )
